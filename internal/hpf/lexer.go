package hpf

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Lex tokenizes mini-HPF source. Comments start with '!' and run to the
// end of the line, except for the '!hpf$' directive sentinel, which is
// returned as a DIRECTIVE token. Blank lines are collapsed.
func Lex(src string) ([]Token, error) {
	// Source runs at about one token per two bytes (0.45 to 0.56 over
	// testdata/), so this capacity holds the whole stream of every such
	// program; denser source regrows it.
	toks := make([]Token, 0, len(src)*3/5+2)
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

func isDigit(c byte) bool      { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isIdentPart(c byte) bool  { return isIdentStart(c) || isDigit(c) }
