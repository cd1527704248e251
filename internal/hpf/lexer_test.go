package hpf

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// lexOracle is the slice-building lexer the streaming one replaced: the
// whole source tokenized in one loop. FuzzLex holds Lex, and so the
// lexer Parse pulls from, equal to it token for token.
func lexOracle(src string) ([]Token, error) {
	var toks []Token
	line, col := 1, 1
	i := 0
	lastEmitted := func() Kind {
		if len(toks) == 0 {
			return NEWLINE
		}
		return toks[len(toks)-1].Kind
	}
	emit := func(k Kind, text string) {
		toks = append(toks, Token{Kind: k, Text: text, Line: line, Col: col})
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			if lastEmitted() != NEWLINE {
				emit(NEWLINE, "\\n")
			}
			i++
			line++
			col = 1
			continue
		case c == ' ' || c == '\t' || c == '\r':
			i++
			col++
			continue
		case c == '!':
			// Directive sentinel or comment.
			rest := src[i:]
			if len(rest) >= 5 && strings.EqualFold(rest[:5], "!hpf$") {
				emit(DIRECTIVE, "!hpf$")
				i += 5
				col += 5
				continue
			}
			for i < len(src) && src[i] != '\n' {
				i++
				col++
			}
			continue
		case isDigit(c):
			start := i
			for i < len(src) && isDigit(src[i]) {
				i++
			}
			emit(NUMBER, src[start:i])
			col += i - start
			continue
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			emit(IDENT, strings.ToLower(src[start:i]))
			col += i - start
			continue
		}
		// Punctuation.
		switch c {
		case '(':
			emit(LPAREN, "(")
		case ')':
			emit(RPAREN, ")")
		case ',':
			emit(COMMA, ",")
		case ':':
			if i+1 < len(src) && src[i+1] == ':' {
				emit(DCOLON, "::")
				i += 2
				col += 2
				continue
			}
			emit(COLON, ":")
		case '=':
			emit(EQUALS, "=")
		case '+':
			emit(PLUS, "+")
		case '-':
			emit(MINUS, "-")
		case '*':
			emit(STAR, "*")
		case '/':
			emit(SLASH, "/")
		default:
			r, _ := utf8.DecodeRuneInString(src[i:])
			return nil, fmt.Errorf("hpf: %d:%d: unexpected character %q", line, col, r)
		}
		i++
		col++
	}
	if lastEmitted() != NEWLINE {
		emit(NEWLINE, "\\n")
	}
	emit(EOF, "")
	return toks, nil
}

// FuzzLex checks the streaming lexer against the oracle, seeded with
// every testdata/ program: the same tokens (kind, text, line, column)
// or the same error text. Parse returns the oracle's error whenever the
// oracle fails.
func FuzzLex(f *testing.F) {
	for _, src := range []string{
		GaxpySource, TransposeSource, EwiseSource, "", "\n\n", "a", "end\n#",
		"!HPF$ memory (64)\n! comment\n\n\nx(1::2) = 3", "x = 1\nend\n#\n", "program é\n",
	} {
		f.Add(src)
	}
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		f.Fatalf("no testdata programs: %v", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := lexOracle(src)
		got, err := Lex(src)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Lex error %v, oracle error %v", err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Lex and the oracle differ:\n%v\n%v", got, want)
		}
		// The parser's two-token window passes the same stream on.
		p := &parser{lx: newLexer(src)}
		p.tok = p.lx.next()
		for i := 0; wantErr == nil; i++ {
			if i%2 == 0 {
				p.lookaheadIsBareEnd()
			}
			if tk := p.next(); tk != want[i] {
				t.Fatalf("parser token %d: %+v, oracle %+v", i, tk, want[i])
			} else if tk.Kind == EOF {
				break
			}
		}
		if _, err := Parse(src); wantErr != nil && (err == nil || err.Error() != wantErr.Error()) {
			t.Fatalf("Parse error %v, want the lexical error %v", err, wantErr)
		}
	})
}

// TestParseLexicalErrorOutranksParseError: the first statement does not
// parse, and a bad character comes two lines later. Parse reports the
// character, as it did when the whole source was lexed first.
func TestParseLexicalErrorOutranksParseError(t *testing.T) {
	for _, src := range []string{
		"x = 1\nend\n#\n",
		"real x(4\nend\n  $",
		"end\n#",
	} {
		_, want := lexOracle(src)
		_, err := Parse(src)
		if want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("%q: Parse error %v, want the lexical error %v", src, err, want)
		}
	}
	if _, err := Parse("x = 1\nend\n#\n"); err == nil || err.Error() != "hpf: 3:1: unexpected character '#'" {
		t.Errorf("got %v, want the '#' at 3:1", err)
	}
}

// TestParseAllocs pins Parse of testdata/gaxpy.hpf at 89 allocations:
// the AST it returns and the lower-cased text of its two FORALLs and its
// SUM. No token slice is built.
func TestParseAllocs(t *testing.T) {
	src, err := os.ReadFile("../../testdata/gaxpy.hpf")
	if err != nil {
		t.Fatal(err)
	}
	s := string(src)
	if got := testing.AllocsPerRun(100, func() { Parse(s) }); got != 89 {
		t.Fatalf("Parse of gaxpy.hpf: %v allocations, want 89", got)
	}
}
