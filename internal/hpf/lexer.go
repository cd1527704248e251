package hpf

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Lex tokenizes mini-HPF source. Comments start with '!' and run to the
// end of the line, except for the '!hpf$' directive sentinel, which is
// returned as a DIRECTIVE token. Blank lines are collapsed. Lex is a
// loop over the lexer the parser pulls its tokens from.
func Lex(src string) ([]Token, error) {
	// Source runs at about one token per two bytes (0.45 to 0.56 over
	// testdata/), so this capacity holds the whole stream of every such
	// program; denser source regrows it.
	toks := make([]Token, 0, len(src)*3/5+2)
	lx := newLexer(src)
	for {
		t := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, nil
		}
	}
}

// lexer produces the tokens of a source one at a time. The stream always
// ends in a NEWLINE and then EOF; after EOF, next returns EOF again. A
// lexical error ends the stream early: next returns EOF and err holds
// the error.
type lexer struct {
	src       string
	i         int
	line, col int
	// last is the kind of the last token returned (NEWLINE before the
	// first), which collapses blank lines and closes the stream.
	last Kind
	err  error
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1, last: NEWLINE} }

// tok returns a token at the current position and records its kind.
func (lx *lexer) tok(k Kind, text string) Token {
	lx.last = k
	return Token{Kind: k, Text: text, Line: lx.line, Col: lx.col}
}

// next returns the next token.
func (lx *lexer) next() Token {
	if lx.last == EOF {
		return lx.tok(EOF, "")
	}
	src := lx.src
	for lx.i < len(src) {
		c := src[lx.i]
		switch {
		case c == '\n':
			blank := lx.last == NEWLINE
			t := lx.tok(NEWLINE, "\\n")
			lx.i++
			lx.line++
			lx.col = 1
			if blank {
				continue
			}
			return t
		case c == ' ' || c == '\t' || c == '\r':
			lx.i++
			lx.col++
			continue
		case c == '!':
			// Directive sentinel or comment.
			rest := src[lx.i:]
			if len(rest) >= 5 && strings.EqualFold(rest[:5], "!hpf$") {
				t := lx.tok(DIRECTIVE, "!hpf$")
				lx.i += 5
				lx.col += 5
				return t
			}
			for lx.i < len(src) && src[lx.i] != '\n' {
				lx.i++
				lx.col++
			}
			continue
		case isDigit(c):
			start := lx.i
			for lx.i < len(src) && isDigit(src[lx.i]) {
				lx.i++
			}
			t := lx.tok(NUMBER, src[start:lx.i])
			lx.col += lx.i - start
			return t
		case isIdentStart(c):
			start := lx.i
			for lx.i < len(src) && isIdentPart(src[lx.i]) {
				lx.i++
			}
			t := lx.tok(IDENT, strings.ToLower(src[start:lx.i]))
			lx.col += lx.i - start
			return t
		}
		// Punctuation.
		var t Token
		switch c {
		case '(':
			t = lx.tok(LPAREN, "(")
		case ')':
			t = lx.tok(RPAREN, ")")
		case ',':
			t = lx.tok(COMMA, ",")
		case ':':
			if lx.i+1 < len(src) && src[lx.i+1] == ':' {
				t = lx.tok(DCOLON, "::")
				lx.i += 2
				lx.col += 2
				return t
			}
			t = lx.tok(COLON, ":")
		case '=':
			t = lx.tok(EQUALS, "=")
		case '+':
			t = lx.tok(PLUS, "+")
		case '-':
			t = lx.tok(MINUS, "-")
		case '*':
			t = lx.tok(STAR, "*")
		case '/':
			t = lx.tok(SLASH, "/")
		default:
			r, _ := utf8.DecodeRuneInString(src[lx.i:])
			lx.err = fmt.Errorf("hpf: %d:%d: unexpected character %q", lx.line, lx.col, r)
			return lx.tok(EOF, "")
		}
		lx.i++
		lx.col++
		return t
	}
	if lx.last != NEWLINE {
		return lx.tok(NEWLINE, "\\n")
	}
	return lx.tok(EOF, "")
}

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
