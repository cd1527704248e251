package hpf

import (
	"fmt"
	"strconv"
)

// Parse tokenizes and parses a mini-HPF program. The parser pulls its
// tokens from the lexer one at a time. A lexical error anywhere in the
// source is returned in place of a parse error, so after a parse error
// Parse lexes the rest of the source.
func Parse(src string) (*Program, error) {
	p := &parser{lx: newLexer(src)}
	p.tok = p.lx.next()
	prog, err := p.parseProgram()
	if err != nil {
		for p.lx.err == nil && p.lx.next().Kind != EOF {
		}
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return prog, err
}

// parser holds a two-token window on the lexer's stream: tok, the next
// token, and ahead, the one after it once lookaheadIsBareEnd has pulled
// it.
type parser struct {
	lx       lexer
	tok      Token
	ahead    Token
	hasAhead bool
}

func (p *parser) peek() Token { return p.tok }

func (p *parser) next() Token {
	t := p.tok
	switch {
	case t.Kind == EOF:
	case p.hasAhead:
		p.tok, p.hasAhead = p.ahead, false
	default:
		p.tok = p.lx.next()
	}
	return t
}

// accept consumes the next token if it has the given kind.
func (p *parser) accept(k Kind) (Token, bool) {
	if p.peek().Kind == k {
		return p.next(), true
	}
	return Token{}, false
}

// expect consumes a token of the given kind or fails.
func (p *parser) expect(k Kind) (Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, fmt.Errorf("hpf: %s: expected %v, found %v %q", t.Pos(), k, t.Kind, t.Text)
	}
	return p.next(), nil
}

// expectKeyword consumes an IDENT with the given (lower-case) spelling.
func (p *parser) expectKeyword(kw string) error {
	t, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	if t.Text != kw {
		return fmt.Errorf("hpf: %s: expected %q, found %q", t.Pos(), kw, t.Text)
	}
	return nil
}

// atKeyword reports whether the next token is the given keyword.
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.Kind == IDENT && t.Text == kw
}

func (p *parser) skipNewlines() {
	for p.peek().Kind == NEWLINE {
		p.next()
	}
}

func (p *parser) endOfStatement() error {
	t := p.peek()
	if t.Kind == NEWLINE {
		p.next()
		return nil
	}
	if t.Kind == EOF {
		return nil
	}
	return fmt.Errorf("hpf: %s: unexpected %v %q at end of statement", t.Pos(), t.Kind, t.Text)
}

// ---------------------------------------------------------------------------

func (p *parser) parseProgram() (*Program, error) {
	prog := &Program{}
	sawEnd := false
	for {
		p.skipNewlines()
		t := p.peek()
		if t.Kind == EOF {
			break
		}
		switch {
		case t.Kind == DIRECTIVE:
			p.next()
			if err := p.parseDirective(prog); err != nil {
				return nil, err
			}
		case p.atKeyword("parameter"):
			if err := p.parseParameter(prog); err != nil {
				return nil, err
			}
		case p.atKeyword("real"):
			if err := p.parseReal(prog); err != nil {
				return nil, err
			}
		case p.atKeyword("end") && p.lookaheadIsBareEnd():
			p.next()
			if err := p.endOfStatement(); err != nil {
				return nil, err
			}
			sawEnd = true
		default:
			if sawEnd {
				return nil, fmt.Errorf("hpf: %s: statement after end", t.Pos())
			}
			st, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			prog.Body = append(prog.Body, st)
		}
		if sawEnd {
			p.skipNewlines()
			if t := p.peek(); t.Kind != EOF {
				return nil, fmt.Errorf("hpf: %s: trailing input after end", t.Pos())
			}
			break
		}
	}
	return prog, nil
}

// lookaheadIsBareEnd distinguishes the program-terminating "end" from
// "end do" / "end forall".
func (p *parser) lookaheadIsBareEnd() bool {
	if !p.hasAhead {
		p.ahead, p.hasAhead = p.lx.next(), true
	}
	return p.ahead.Kind == NEWLINE || p.ahead.Kind == EOF
}

func (p *parser) parseParameter(prog *Program) error {
	if err := p.expectKeyword("parameter"); err != nil {
		return err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return err
	}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(EQUALS); err != nil {
			return err
		}
		num, err := p.expect(NUMBER)
		if err != nil {
			return err
		}
		v, err := strconv.Atoi(num.Text)
		if err != nil {
			return fmt.Errorf("hpf: %s: bad number %q", num.Pos(), num.Text)
		}
		prog.Params = append(prog.Params, Param{Name: name.Text, Value: v})
		if _, ok := p.accept(COMMA); !ok {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return err
	}
	return p.endOfStatement()
}

func (p *parser) parseReal(prog *Program) error {
	if err := p.expectKeyword("real"); err != nil {
		return err
	}
	for {
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		var dims []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			dims = append(dims, e)
			if _, ok := p.accept(COMMA); !ok {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
		prog.Arrays = append(prog.Arrays, ArrayDecl{Name: name.Text, Dims: dims})
		if _, ok := p.accept(COMMA); !ok {
			break
		}
	}
	return p.endOfStatement()
}

func (p *parser) parseDirective(prog *Program) error {
	t, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	switch t.Text {
	case "processors":
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		sizes, err := p.parseExprList()
		if err != nil {
			return err
		}
		prog.Processors = &ProcessorsDir{Name: name.Text, Sizes: sizes}
	case "template":
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		sizes, err := p.parseExprList()
		if err != nil {
			return err
		}
		prog.Template = &TemplateDir{Name: name.Text, Sizes: sizes}
	case "distribute":
		name, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		d := &DistributeDir{Template: name.Text}
		for {
			scheme, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			if scheme.Text != "block" && scheme.Text != "cyclic" {
				return fmt.Errorf("hpf: %s: unknown distribution %q", scheme.Pos(), scheme.Text)
			}
			d.Schemes = append(d.Schemes, scheme.Text)
			if _, ok := p.accept(LPAREN); ok {
				arg, err := p.parseExpr()
				if err != nil {
					return err
				}
				d.Arg = arg
				if _, err := p.expect(RPAREN); err != nil {
					return err
				}
			}
			if _, ok := p.accept(COMMA); !ok {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
		if err := p.expectKeyword("on"); err != nil {
			return err
		}
		procs, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		d.Procs = procs.Text
		prog.Distribute = d
	case "align":
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		var pattern []AlignAxis
		for {
			switch tk := p.next(); tk.Kind {
			case STAR:
				pattern = append(pattern, AxisCollapsed)
			case COLON:
				pattern = append(pattern, AxisAligned)
			default:
				return fmt.Errorf("hpf: %s: align pattern wants '*' or ':', found %q", tk.Pos(), tk.Text)
			}
			if _, ok := p.accept(COMMA); !ok {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
		if err := p.expectKeyword("with"); err != nil {
			return err
		}
		with, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(DCOLON); err != nil {
			return err
		}
		var arrays []string
		for {
			name, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			arrays = append(arrays, name.Text)
			if _, ok := p.accept(COMMA); !ok {
				break
			}
		}
		prog.Aligns = append(prog.Aligns, AlignDir{Pattern: pattern, With: with.Text, Arrays: arrays})
	case "out_of_core":
		if _, err := p.expect(DCOLON); err != nil {
			return err
		}
		for {
			name, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			prog.OutOfCore = append(prog.OutOfCore, name.Text)
			if _, ok := p.accept(COMMA); !ok {
				break
			}
		}
	case "memory":
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		mem, err := p.parseExpr()
		if err != nil {
			return err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
		prog.Memory = mem
	default:
		return fmt.Errorf("hpf: %s: unknown directive %q", t.Pos(), t.Text)
	}
	return p.endOfStatement()
}

// ---------------------------------------------------------------------------
// Statements

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.atKeyword("do"):
		return p.parseDo()
	case p.atKeyword("forall"):
		return p.parseForall()
	default:
		return p.parseAssign()
	}
}

// parseBody parses statements until "end <closer>".
func (p *parser) parseBody(closer string) ([]Stmt, error) {
	var body []Stmt
	for {
		p.skipNewlines()
		t := p.peek()
		if t.Kind == EOF {
			return nil, fmt.Errorf("hpf: %s: missing 'end %s'", t.Pos(), closer)
		}
		if p.atKeyword("end") && !p.lookaheadIsBareEnd() {
			p.next() // end
			if err := p.expectKeyword(closer); err != nil {
				return nil, err
			}
			if err := p.endOfStatement(); err != nil {
				return nil, err
			}
			return body, nil
		}
		st, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, st)
	}
}

func (p *parser) parseDo() (Stmt, error) {
	if err := p.expectKeyword("do"); err != nil {
		return nil, err
	}
	v, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQUALS); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endOfStatement(); err != nil {
		return nil, err
	}
	body, err := p.parseBody("do")
	if err != nil {
		return nil, err
	}
	return &DoLoop{Var: v.Text, Lo: lo, Hi: hi, Body: body}, nil
}

func (p *parser) parseForall() (Stmt, error) {
	if err := p.expectKeyword("forall"); err != nil {
		return nil, err
	}
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	v, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(EQUALS); err != nil {
		return nil, err
	}
	lo, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	hi, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	if err := p.endOfStatement(); err != nil {
		return nil, err
	}
	body, err := p.parseBody("forall")
	if err != nil {
		return nil, err
	}
	for _, st := range body {
		if _, ok := st.(*Assign); !ok {
			return nil, fmt.Errorf("hpf: FORALL body must contain only assignments")
		}
	}
	return &Forall{Var: v.Text, Lo: lo, Hi: hi, Body: body}, nil
}

func (p *parser) parseAssign() (Stmt, error) {
	lhsExpr, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	lhs, ok := lhsExpr.(*SectionRef)
	if !ok {
		return nil, fmt.Errorf("hpf: assignment target must be an array reference, got %s", lhsExpr.String())
	}
	if _, err := p.expect(EQUALS); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.endOfStatement(); err != nil {
		return nil, err
	}
	return &Assign{LHS: lhs, RHS: rhs}, nil
}

// ---------------------------------------------------------------------------
// Expressions

func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != PLUS && t.Kind != MINUS {
			return l, nil
		}
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: t.Text[0], L: l, R: r}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != STAR && t.Kind != SLASH {
			return l, nil
		}
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: t.Text[0], L: l, R: r}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case NUMBER:
		p.next()
		v, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("hpf: %s: bad number %q", t.Pos(), t.Text)
		}
		return &Num{Value: v}, nil
	case MINUS:
		p.next()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: '-', L: &Num{Value: 0}, R: inner}, nil
	case LPAREN:
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		p.next()
		if t.Text == "sum" && p.peek().Kind == LPAREN {
			return p.parseSum()
		}
		if p.peek().Kind != LPAREN {
			return &Ident{Name: t.Text}, nil
		}
		p.next() // '('
		ref := &SectionRef{Array: t.Text}
		for {
			sub, err := p.parseSubscript()
			if err != nil {
				return nil, err
			}
			ref.Subs = append(ref.Subs, sub)
			if _, ok := p.accept(COMMA); !ok {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return ref, nil
	default:
		return nil, fmt.Errorf("hpf: %s: unexpected %v %q in expression", t.Pos(), t.Kind, t.Text)
	}
}

func (p *parser) parseSum() (Expr, error) {
	// "sum" and '(' already consumed up to '('... the caller consumed
	// "sum" and verified LPAREN; consume it here.
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	argExpr, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	arg, ok := argExpr.(*SectionRef)
	if !ok {
		// A bare identifier names a whole array.
		if id, isIdent := argExpr.(*Ident); isIdent {
			arg = &SectionRef{Array: id.Name}
		} else {
			return nil, fmt.Errorf("hpf: SUM argument must be an array, got %s", argExpr.String())
		}
	}
	if _, err := p.expect(COMMA); err != nil {
		return nil, err
	}
	dim, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return &SumIntrinsic{Arg: arg, Dim: dim}, nil
}

// parseSubscript parses "expr" or "expr : expr".
func (p *parser) parseSubscript() (Subscript, error) {
	lo, err := p.parseExpr()
	if err != nil {
		return Subscript{}, err
	}
	if _, ok := p.accept(COLON); !ok {
		return Subscript{Index: lo}, nil
	}
	hi, err := p.parseExpr()
	if err != nil {
		return Subscript{}, err
	}
	return Subscript{Lo: lo, Hi: hi}, nil
}

// parseExprList parses "(" expr {"," expr} ")".
func (p *parser) parseExprList() ([]Expr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var out []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if _, ok := p.accept(COMMA); !ok {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return out, nil
}
