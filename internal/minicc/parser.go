package minicc

import (
	"fmt"
	"strings"
)

// Parser builds an AST from tokens. It is a conventional recursive-descent
// parser with precedence climbing for binary operators. Tokens are pulled
// from the Lexer on demand into a small look-ahead ring, so a file's tokens
// are never all in memory at once.
type Parser struct {
	file     string
	lx       *Lexer
	ring     []Token // look-ahead window; len is a power of two
	head     int     // ring index of the current token
	n        int     // tokens buffered from head on
	consumed int     // tokens consumed so far, for the no-progress checks
	errs     []error // parse errors; lexical errors stay in lx
	typedefs map[string]TypeExpr
}

// Parse parses one mini-C translation unit. The source is macro-expanded
// first (see Preprocess); line numbers are preserved.
func Parse(file, src string) (*File, error) {
	p := &Parser{
		file:     file,
		lx:       NewLexer(file, Preprocess(src)),
		ring:     make([]Token, 8),
		typedefs: make(map[string]TypeExpr),
	}
	f := p.parseFile()
	f.Lines = strings.Count(src, "\n") + 1
	// parseFile returns only at EOF, so the lexer has seen the whole file and
	// its errors, which precede every parse error, are all known.
	if errs := p.lx.Errors(); len(errs) > 0 {
		return f, errs[0]
	}
	if len(p.errs) > 0 {
		return f, p.errs[0]
	}
	return f, nil
}

// cur returns the current token in place; it stays valid until the parser
// lexes further ahead.
func (p *Parser) cur() *Token {
	if p.n == 0 {
		p.fill(0)
	}
	return &p.ring[p.head]
}

// peekN returns the token n positions past the current one in place. Past
// the end it returns EOF, which the lexer repeats.
func (p *Parser) peekN(n int) *Token {
	if p.n <= n {
		p.fill(n)
	}
	return &p.ring[(p.head+n)&(len(p.ring)-1)]
}

// fill lexes until the window holds n+1 tokens, doubling the ring if full.
func (p *Parser) fill(n int) {
	for p.n <= n {
		if p.n == len(p.ring) {
			ring := make([]Token, 2*len(p.ring))
			for i := range p.n {
				ring[i] = p.ring[(p.head+i)&(len(p.ring)-1)]
			}
			p.ring, p.head = ring, 0
		}
		p.ring[(p.head+p.n)&(len(p.ring)-1)] = p.lx.Next()
		p.n++
	}
}

// next consumes and returns the current token; EOF is never consumed.
func (p *Parser) next() Token {
	t := *p.cur()
	if t.Kind != EOF {
		p.head = (p.head + 1) & (len(p.ring) - 1)
		p.n--
		p.consumed++
	}
	return t
}

func (p *Parser) at(text string) bool {
	t := p.cur()
	return t.Text == text && t.Kind != STRING
}

func (p *Parser) accept(text string) bool {
	if p.at(text) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(text string) Token {
	if p.at(text) {
		return p.next()
	}
	p.errorf("expected %q, found %s", text, p.cur())
	return *p.cur()
}

func (p *Parser) errorf(format string, args ...any) {
	t := p.cur()
	p.errs = append(p.errs, &Error{File: p.file, Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)})
	// Simple recovery: skip the offending token so parsing can continue.
	p.next()
}

func (p *Parser) position() Position {
	t := p.cur()
	return Position{File: p.file, Line: t.Line, Col: t.Col}
}

// typeQualifiers that may prefix a type and are ignored.
var typeQualifiers = map[string]bool{
	"const": true, "volatile": true, "unsigned": true, "signed": true,
	"inline": true,
}

var baseTypes = map[string]bool{
	"int": true, "char": true, "long": true, "short": true, "void": true,
}

// startsType reports whether the token stream at offset n begins a type.
func (p *Parser) startsType(n int) bool {
	t := p.peekN(n)
	for typeQualifiers[t.Text] {
		n++
		t = p.peekN(n)
	}
	if baseTypes[t.Text] || t.Text == "struct" {
		return true
	}
	if t.Kind == IDENT {
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

// parseTypePrefix parses qualifiers, a base type name and leading '*'s
// (array suffixes belong to declarators and are parsed by callers).
func (p *Parser) parseTypePrefix() TypeExpr {
	for typeQualifiers[p.cur().Text] {
		p.next()
	}
	var te TypeExpr
	switch {
	case p.accept("struct"):
		te.IsStruct = true
		if p.cur().Kind == IDENT {
			te.Base = p.next().Text
		} else {
			p.errorf("expected struct tag")
		}
	case baseTypes[p.cur().Text]:
		te.Base = p.next().Text
		// Swallow multi-word types like "long long", "unsigned int".
		for baseTypes[p.cur().Text] {
			p.next()
		}
	case p.cur().Kind == IDENT:
		if td, ok := p.typedefs[p.cur().Text]; ok {
			te = td
			p.next()
		} else {
			p.errorf("expected type, found %s", p.cur())
		}
	default:
		p.errorf("expected type, found %s", p.cur())
	}
	for typeQualifiers[p.cur().Text] {
		p.next()
	}
	for p.accept("*") {
		te.Ptr++
		for typeQualifiers[p.cur().Text] {
			p.next()
		}
	}
	return te
}

// parseFile parses the whole translation unit.
func (p *Parser) parseFile() *File {
	f := &File{Name: p.file}
	for p.cur().Kind != EOF {
		start := p.consumed
		switch {
		case p.at("typedef"):
			p.parseTypedef(f)
		case p.at("enum"):
			f.Enums = append(f.Enums, p.parseEnum())
		case p.at("struct") && p.peekN(2).Text == "{":
			f.Structs = append(f.Structs, p.parseStructDecl())
		default:
			nerr := len(p.errs)
			p.parseTopLevelDecl(f)
			if len(p.errs) > nerr {
				p.syncTopLevel()
			}
		}
		if p.consumed == start { // no progress: skip a token to avoid livelock
			p.next()
		}
	}
	return f
}

// syncTopLevel skips tokens until after a top-level ';' or a balanced '}',
// the usual panic-mode recovery points for C translation units.
func (p *Parser) syncTopLevel() {
	depth := 0
	for p.cur().Kind != EOF {
		t := p.cur()
		switch t.Text {
		case "{":
			depth++
		case "}":
			depth--
			if depth <= 0 {
				p.next()
				return
			}
		case ";":
			if depth == 0 {
				p.next()
				return
			}
		}
		p.next()
	}
}

func (p *Parser) parseTypedef(f *File) {
	p.expect("typedef")
	if p.at("struct") && p.peekN(2).Text == "{" {
		// typedef struct tag { ... } name;
		st := p.parseStructDeclNoSemi()
		f.Structs = append(f.Structs, st)
		if p.cur().Kind == IDENT {
			name := p.next().Text
			p.typedefs[name] = TypeExpr{Base: st.Name, IsStruct: true}
		}
		p.expect(";")
		return
	}
	te := p.parseTypePrefix()
	if p.cur().Kind == IDENT {
		name := p.next().Text
		p.typedefs[name] = te
	} else {
		p.errorf("expected typedef name")
	}
	p.expect(";")
}

func (p *Parser) parseEnum() *EnumDecl {
	pos := p.position()
	p.expect("enum")
	if p.cur().Kind == IDENT {
		p.next() // optional tag
	}
	e := &EnumDecl{Pos: pos}
	p.expect("{")
	val := int64(0)
	for !p.at("}") && p.cur().Kind != EOF {
		if p.cur().Kind != IDENT {
			p.errorf("expected enumerator name")
			break
		}
		name := p.next().Text
		if p.accept("=") {
			if p.cur().Kind == INT {
				val = p.next().Val
			} else if p.accept("-") && p.cur().Kind == INT {
				val = -p.next().Val
			}
		}
		e.Names = append(e.Names, name)
		e.Vals = append(e.Vals, val)
		val++
		if !p.accept(",") {
			break
		}
	}
	p.expect("}")
	p.expect(";")
	return e
}

func (p *Parser) parseStructDecl() *StructDecl {
	st := p.parseStructDeclNoSemi()
	p.expect(";")
	return st
}

func (p *Parser) parseStructDeclNoSemi() *StructDecl {
	pos := p.position()
	p.expect("struct")
	st := &StructDecl{Pos: pos}
	if p.cur().Kind == IDENT {
		st.Name = p.next().Text
	} else {
		st.Name = fmt.Sprintf("anon_%s_%d", p.file, pos.Line)
	}
	p.expect("{")
	for !p.at("}") && p.cur().Kind != EOF {
		te := p.parseTypePrefix()
		for {
			fieldType := te
			for p.accept("*") {
				fieldType.Ptr++
			}
			fpos := p.position()
			if p.cur().Kind != IDENT {
				p.errorf("expected field name")
				break
			}
			name := p.next().Text
			if p.accept("[") {
				if p.cur().Kind == INT {
					fieldType.ArrayLen = int(p.next().Val)
				} else {
					fieldType.ArrayLen = 1
					for !p.at("]") && p.cur().Kind != EOF {
						p.next()
					}
				}
				p.expect("]")
			}
			st.Fields = append(st.Fields, &VarDecl{Pos: fpos, Name: name, Type: fieldType})
			if !p.accept(",") {
				break
			}
		}
		p.expect(";")
	}
	p.expect("}")
	return st
}

// parseTopLevelDecl parses a function definition/declaration or a global
// variable.
func (p *Parser) parseTopLevelDecl(f *File) {
	static := false
	for p.at("static") || p.at("extern") || p.at("inline") {
		if p.at("static") {
			static = true
		}
		p.next()
	}
	te := p.parseTypePrefix()
	pos := p.position()
	if p.cur().Kind != IDENT {
		p.errorf("expected declarator name")
		return
	}
	name := p.next().Text
	if p.at("(") {
		fd := p.parseFuncRest(pos, name, te)
		fd.Static = static
		f.Funcs = append(f.Funcs, fd)
		return
	}
	// Global variable (possibly several comma-separated, possibly array,
	// possibly with aggregate initializer).
	for {
		g := &VarDecl{Pos: pos, Name: name, Type: te}
		if p.accept("[") {
			if p.cur().Kind == INT {
				g.Type.ArrayLen = int(p.next().Val)
			} else {
				g.Type.ArrayLen = 1
			}
			p.expect("]")
		}
		if p.accept("=") {
			if p.at("{") {
				g.InitNames = p.parseAggregateInit()
			} else {
				g.Init = p.parseAssignExpr()
			}
		}
		f.Globals = append(f.Globals, g)
		if !p.accept(",") {
			break
		}
		for p.accept("*") {
			te.Ptr++
		}
		pos = p.position()
		if p.cur().Kind != IDENT {
			p.errorf("expected declarator name")
			break
		}
		name = p.next().Text
	}
	p.expect(";")
}

// parseAggregateInit skims a brace initializer, collecting identifier
// references (e.g. the function names in a platform_driver struct).
func (p *Parser) parseAggregateInit() []string {
	var names []string
	depth := 0
	for p.cur().Kind != EOF {
		t := p.cur()
		switch {
		case t.Text == "{" && t.Kind == PUNCT:
			depth++
		case t.Text == "}" && t.Kind == PUNCT:
			depth--
			if depth == 0 {
				p.next()
				return names
			}
		case t.Kind == IDENT:
			names = append(names, t.Text)
		}
		p.next()
	}
	return names
}

func (p *Parser) parseFuncRest(pos Position, name string, result TypeExpr) *FuncDecl {
	fd := &FuncDecl{Pos: pos, Name: name, Result: result}
	p.expect("(")
	if p.at("void") && p.peekN(1).Text == ")" {
		p.next()
	}
	for !p.at(")") && p.cur().Kind != EOF {
		if p.accept("...") {
			fd.Variadic = true
			break
		}
		pt := p.parseTypePrefix()
		ppos := p.position()
		pname := ""
		if p.cur().Kind == IDENT {
			pname = p.next().Text
		}
		if p.accept("[") {
			// Array parameters decay to pointers.
			for !p.at("]") && p.cur().Kind != EOF {
				p.next()
			}
			p.expect("]")
			pt.Ptr++
		}
		if pname == "" {
			pname = fmt.Sprintf("arg%d", len(fd.Params))
		}
		fd.Params = append(fd.Params, &VarDecl{Pos: ppos, Name: pname, Type: pt})
		if !p.accept(",") {
			break
		}
	}
	// Panic-mode recovery: resynchronize at the parameter-list close so a
	// malformed signature does not consume the following declarations.
	for !p.at(")") && !p.at("{") && !p.at(";") && p.cur().Kind != EOF {
		p.next()
	}
	p.accept(")")
	if p.accept(";") {
		return fd // declaration only
	}
	fd.Body = p.parseBlock()
	return fd
}

func (p *Parser) parseBlock() *BlockStmt {
	pos := p.position()
	p.expect("{")
	b := &BlockStmt{Pos: pos}
	for !p.at("}") && p.cur().Kind != EOF {
		start := p.consumed
		b.Stmts = append(b.Stmts, p.parseStmt())
		if p.consumed == start {
			p.next()
		}
	}
	p.expect("}")
	return b
}

func (p *Parser) parseStmt() Stmt {
	pos := p.position()
	switch {
	case p.at("{"):
		return p.parseBlock()
	case p.accept(";"):
		return &EmptyStmt{Pos: pos}
	case p.accept("if"):
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		s := &IfStmt{Pos: pos, Cond: cond, Then: p.parseStmt()}
		if p.accept("else") {
			s.Else = p.parseStmt()
		}
		return s
	case p.accept("while"):
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		return &WhileStmt{Pos: pos, Cond: cond, Body: p.parseStmt()}
	case p.accept("do"):
		body := p.parseStmt()
		p.expect("while")
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		p.expect(";")
		return &WhileStmt{Pos: pos, Cond: cond, Body: body, DoWhile: true}
	case p.accept("for"):
		p.expect("(")
		var init Stmt
		if !p.at(";") {
			if p.startsType(0) {
				init = p.parseDeclStmt()
			} else {
				e := p.parseExpr()
				init = &ExprStmt{Pos: pos, X: e}
				p.expect(";")
			}
		} else {
			p.expect(";")
		}
		var cond Expr
		if !p.at(";") {
			cond = p.parseExpr()
		}
		p.expect(";")
		var post Expr
		if !p.at(")") {
			post = p.parseExpr()
		}
		p.expect(")")
		return &ForStmt{Pos: pos, Init: init, Cond: cond, Post: post, Body: p.parseStmt()}
	case p.accept("return"):
		s := &ReturnStmt{Pos: pos}
		if !p.at(";") {
			s.X = p.parseExpr()
		}
		p.expect(";")
		return s
	case p.accept("goto"):
		s := &GotoStmt{Pos: pos}
		if p.cur().Kind == IDENT {
			s.Label = p.next().Text
		} else {
			p.errorf("expected label after goto")
		}
		p.expect(";")
		return s
	case p.accept("break"):
		p.expect(";")
		return &BreakStmt{Pos: pos}
	case p.accept("continue"):
		p.expect(";")
		return &ContinueStmt{Pos: pos}
	case p.accept("switch"):
		return p.parseSwitch(pos)
	case p.cur().Kind == IDENT && p.peekN(1).Text == ":" && p.peekN(2).Text != ":":
		name := p.next().Text
		p.expect(":")
		inner := Stmt(&EmptyStmt{Pos: pos})
		if !p.at("}") {
			inner = p.parseStmt()
		}
		return &LabelStmt{Pos: pos, Name: name, Stmt: inner}
	case p.startsType(0) && !(p.at("struct") && p.peekN(2).Text == "{"):
		return p.parseDeclStmt()
	default:
		e := p.parseExpr()
		p.expect(";")
		return &ExprStmt{Pos: pos, X: e}
	}
}

func (p *Parser) parseSwitch(pos Position) Stmt {
	p.expect("(")
	tag := p.parseExpr()
	p.expect(")")
	p.expect("{")
	s := &SwitchStmt{Pos: pos, Tag: tag}
	var cc *CaseClause
	for !p.at("}") && p.cur().Kind != EOF {
		switch {
		case p.accept("case"):
			cc = &CaseClause{Pos: p.position(), Val: p.parseExpr()}
			p.expect(":")
			s.Cases = append(s.Cases, cc)
		case p.accept("default"):
			cc = &CaseClause{Pos: p.position(), IsDefault: true}
			p.expect(":")
			s.Cases = append(s.Cases, cc)
		default:
			if cc == nil {
				p.errorf("statement before first case")
				p.next()
				continue
			}
			cc.Body = append(cc.Body, p.parseStmt())
		}
	}
	p.expect("}")
	return s
}

func (p *Parser) parseDeclStmt() Stmt {
	pos := p.position()
	te := p.parseTypePrefix()
	ds := &DeclStmt{Pos: pos}
	for {
		dt := te
		for p.accept("*") {
			dt.Ptr++
		}
		vpos := p.position()
		if p.cur().Kind != IDENT {
			p.errorf("expected variable name")
			break
		}
		name := p.next().Text
		if p.accept("[") {
			if p.cur().Kind == INT {
				dt.ArrayLen = int(p.next().Val)
			} else {
				dt.ArrayLen = 1
			}
			p.expect("]")
		}
		d := &VarDecl{Pos: vpos, Name: name, Type: dt}
		if p.accept("=") {
			if p.at("{") {
				d.InitNames = p.parseAggregateInit()
				d.AggregateInit = true
			} else {
				d.Init = p.parseAssignExpr()
			}
		}
		ds.Decls = append(ds.Decls, d)
		if !p.accept(",") {
			break
		}
	}
	p.expect(";")
	return ds
}

// ---- expressions ----

func (p *Parser) parseExpr() Expr {
	e := p.parseAssignExpr()
	for p.accept(",") {
		e = p.parseAssignExpr() // comma operator: keep last (effects preserved by caller lowering both? kept simple)
	}
	return e
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true,
}

func (p *Parser) parseAssignExpr() Expr {
	lhs := p.parseTernary()
	if assignOps[p.cur().Text] && p.cur().Kind == PUNCT {
		pos := p.position()
		op := p.next().Text
		rhs := p.parseAssignExpr()
		return &Assign{Pos: pos, Op: op, X: lhs, Y: rhs}
	}
	return lhs
}

func (p *Parser) parseTernary() Expr {
	c := p.parseBinary(1)
	if p.at("?") {
		pos := p.position()
		p.next()
		t := p.parseAssignExpr()
		p.expect(":")
		f := p.parseTernary()
		return &Cond{Pos: pos, C: c, T: t, F: f}
	}
	return c
}

var binPrec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		t := p.cur()
		prec, ok := binPrec[t.Text]
		if t.Kind != PUNCT || !ok || prec < minPrec {
			return lhs
		}
		pos := p.position()
		op := p.next().Text
		rhs := p.parseBinary(prec + 1)
		lhs = &Binary{Pos: pos, Op: op, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() Expr {
	pos := p.position()
	switch {
	case p.accept("!"):
		return &Unary{Pos: pos, Op: "!", X: p.parseUnary()}
	case p.accept("-"):
		return &Unary{Pos: pos, Op: "-", X: p.parseUnary()}
	case p.accept("~"):
		return &Unary{Pos: pos, Op: "~", X: p.parseUnary()}
	case p.accept("*"):
		return &Unary{Pos: pos, Op: "*", X: p.parseUnary()}
	case p.accept("&"):
		return &Unary{Pos: pos, Op: "&", X: p.parseUnary()}
	case p.accept("+"):
		return p.parseUnary()
	case p.accept("++"):
		return &Unary{Pos: pos, Op: "++", X: p.parseUnary()}
	case p.accept("--"):
		return &Unary{Pos: pos, Op: "--", X: p.parseUnary()}
	case p.accept("sizeof"):
		if p.at("(") && p.startsType(1) {
			p.expect("(")
			te := p.parseTypePrefix()
			p.expect(")")
			return &SizeofExpr{Pos: pos, Type: te, IsType: true}
		}
		p.expect("(")
		x := p.parseExpr()
		p.expect(")")
		return &SizeofExpr{Pos: pos, X: x}
	case p.at("(") && p.startsType(1):
		p.expect("(")
		te := p.parseTypePrefix()
		p.expect(")")
		return &Cast{Pos: pos, Type: te, X: p.parseUnary()}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	e := p.parsePrimary()
	for {
		pos := p.position()
		switch {
		case p.at("("):
			id, ok := e.(*Ident)
			if !ok {
				p.errorf("indirect calls are not supported")
				id = &Ident{Pos: pos, Name: "__indirect__"}
			}
			p.expect("(")
			call := &CallExpr{Pos: pos, Fun: id.Name}
			for !p.at(")") && p.cur().Kind != EOF {
				call.Args = append(call.Args, p.parseAssignExpr())
				if !p.accept(",") {
					break
				}
			}
			p.expect(")")
			e = call
		case p.accept("["):
			i := p.parseExpr()
			p.expect("]")
			e = &Index{Pos: pos, X: e, I: i}
		case p.accept("->"):
			if p.cur().Kind != IDENT {
				p.errorf("expected field name after ->")
				return e
			}
			e = &Select{Pos: pos, X: e, Field: p.next().Text, Arrow: true}
		case p.accept("."):
			if p.cur().Kind != IDENT {
				p.errorf("expected field name after .")
				return e
			}
			e = &Select{Pos: pos, X: e, Field: p.next().Text}
		case p.accept("++"):
			e = &Postfix{Pos: pos, Op: "++", X: e}
		case p.accept("--"):
			e = &Postfix{Pos: pos, Op: "--", X: e}
		default:
			return e
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	pos := p.position()
	t := *p.cur()
	switch {
	case t.Kind == INT:
		p.next()
		return &IntLit{Pos: pos, Val: t.Val}
	case t.Kind == CHARLIT:
		p.next()
		return &IntLit{Pos: pos, Val: t.Val}
	case t.Kind == STRING:
		p.next()
		// Adjacent string literals concatenate, as in C.
		s := t.Text
		for p.cur().Kind == STRING {
			s += p.next().Text
		}
		return &StrLit{Pos: pos, Val: s}
	case t.Text == "NULL" && t.Kind == KEYWORD:
		p.next()
		return &NullLit{Pos: pos}
	case t.Kind == IDENT:
		p.next()
		return &Ident{Pos: pos, Name: t.Text}
	case p.accept("("):
		e := p.parseExpr()
		p.expect(")")
		return e
	}
	p.errorf("expected expression, found %s", t)
	return &IntLit{Pos: pos, Val: 0}
}
