// Package psparser implements a recursive-descent parser producing
// psast trees from PowerShell source, covering the language subset
// exercised by obfuscated scripts: pipelines, commands, the full
// operator set with PowerShell precedence, control flow, functions,
// script blocks, hashtables, here-strings and expandable strings.
package psparser

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// parseCalls counts top-level Parse and ParseTokens invocations since
// process start. It is cheap instrumentation (one atomic add per call)
// that lets the parse-amortization regression tests and the pipeline
// trace assert how many full parses a deobfuscation run actually
// performs.
var parseCalls atomic.Int64

// ParseCalls returns the number of Parse and ParseTokens invocations
// performed by this process so far. Deltas around a region of work
// measure its parse cost.
func ParseCalls() int64 { return parseCalls.Load() }

// SyntaxError reports a parse failure at a source offset.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("syntax error at offset %d: %s", e.Pos, e.Msg)
}

// maxParseDepth bounds recursive-descent nesting. Go stack exhaustion is
// fatal and unrecoverable, so hostile inputs with pathological nesting
// (tens of thousands of parens) must be rejected with a typed error
// before the runtime kills the process. Each syntactic nesting level
// costs two to three counter increments, so this admits well over 10k
// levels of real nesting while staying far below the runtime stack cap.
const maxParseDepth = 40_000

// DepthError reports that input nesting exceeded maxParseDepth. It
// unwraps to limits.ErrParseDepth so callers can classify it.
type DepthError struct {
	Pos int
}

func (e *DepthError) Error() string {
	return fmt.Sprintf("parse depth limit exceeded at offset %d", e.Pos)
}

func (e *DepthError) Unwrap() error { return limits.ErrParseDepth }

type parser struct {
	src    string
	offset int // shift applied to extents (for nested sub-parses)
	toks   []pstoken.Token
	pos    int
	depth  int // recursion depth, shared with nested sub-parses
}

// enter charges one level of recursion depth; call leave on return.
func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		pos := p.offset
		if p.pos < len(p.toks) {
			pos += int(p.toks[p.pos].Start)
		} else {
			pos += len(p.src)
		}
		return &DepthError{Pos: pos}
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

// Parse parses a complete PowerShell script. Internal panics are
// converted to a *limits.PanicError rather than crashing the caller.
func Parse(src string) (sb *psast.ScriptBlock, err error) {
	defer limits.Recover("psparser.Parse", &err)
	parseCalls.Add(1)
	return parseAt(src, 0, 0)
}

// ParseTokens parses a complete PowerShell script from the token
// stream pstoken.Tokenize returned for it without error, so a caller
// that already holds the tokens does not lex src again. The result
// equals Parse(src). toks is only read, never modified, so a cached
// stream may be passed.
func ParseTokens(src string, toks []pstoken.Token) (sb *psast.ScriptBlock, err error) {
	defer limits.Recover("psparser.ParseTokens", &err)
	parseCalls.Add(1)
	return parseTokensAt(src, toks, 0, 0)
}

// parseAt parses src whose first byte sits at absolute offset off in the
// enclosing script, so extents remain absolute. depth seeds the recursion
// counter so sub-parses (expandable-string subexpressions) inherit the
// enclosing parser's depth instead of resetting it.
func parseAt(src string, off, depth int) (*psast.ScriptBlock, error) {
	toks, err := pstoken.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return parseTokensAt(src, toks, off, depth)
}

// parseTokensAt is parseAt over an already lexed src.
func parseTokensAt(src string, toks []pstoken.Token, off, depth int) (*psast.ScriptBlock, error) {
	p := &parser{src: src, offset: off, toks: significant(toks), depth: depth}
	sb, err := p.parseScriptBody(0, len(src))
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, p.errorf("unexpected token %q", p.text(p.cur()))
	}
	return sb, nil
}

// significant returns toks without the comment and line-continuation
// tokens, which the grammar never reads. It copies only when there is
// something to drop, and never filters in place: toks may be a cached
// stream shared with other readers.
func significant(toks []pstoken.Token) []pstoken.Token {
	if !slices.ContainsFunc(toks, insignificant) {
		return toks
	}
	return slices.DeleteFunc(slices.Clone(toks), insignificant)
}

func insignificant(t pstoken.Token) bool {
	return t.Type == pstoken.Comment || t.Type == pstoken.LineContinuation
}

func (p *parser) errorf(format string, args ...any) error {
	pos := p.offset
	if p.pos < len(p.toks) {
		pos += int(p.toks[p.pos].Start)
	} else {
		pos += len(p.src)
	}
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) atEnd() bool { return p.pos >= len(p.toks) }

func (p *parser) cur() pstoken.Token {
	if p.atEnd() {
		return pstoken.Token{Type: pstoken.Unknown, Start: int32(len(p.src))}
	}
	return p.toks[p.pos]
}

func (p *parser) peek(n int) pstoken.Token {
	if p.pos+n >= len(p.toks) {
		return pstoken.Token{Type: pstoken.Unknown, Start: int32(len(p.src))}
	}
	return p.toks[p.pos+n]
}

// text returns a token's raw source text.
func (p *parser) text(t pstoken.Token) string { return t.Text(p.src) }

func (p *parser) advance() pstoken.Token {
	t := p.cur()
	if !p.atEnd() {
		p.pos++
	}
	return t
}

// ext converts a token-relative byte range to an absolute extent.
func (p *parser) ext(start, end int) psast.Extent {
	return psast.Extent{Start: start + p.offset, End: end + p.offset}
}

func (p *parser) tokExt(t pstoken.Token) psast.Extent {
	return p.ext(int(t.Start), t.End())
}

// skipSeparators consumes newlines and semicolons.
func (p *parser) skipSeparators() {
	for !p.atEnd() {
		switch p.cur().Type {
		case pstoken.NewLine, pstoken.StatementSeparator:
			p.pos++
		default:
			return
		}
	}
}

// skipNewlines consumes newline tokens only.
func (p *parser) skipNewlines() {
	for !p.atEnd() && p.cur().Type == pstoken.NewLine {
		p.pos++
	}
}

func (p *parser) isOperator(text string) bool {
	t := p.cur()
	return t.Type == pstoken.Operator && strings.EqualFold(t.Content, text)
}

func (p *parser) isGroupStart(text string) bool {
	t := p.cur()
	return t.Type == pstoken.GroupStart && t.Content == text
}

func (p *parser) isGroupEnd(text string) bool {
	t := p.cur()
	return t.Type == pstoken.GroupEnd && t.Content == text
}

func (p *parser) isKeyword(word string) bool {
	t := p.cur()
	return t.Type == pstoken.Keyword && strings.EqualFold(t.Content, word)
}

func (p *parser) expectGroupEnd(text string) (pstoken.Token, error) {
	p.skipNewlines()
	if !p.isGroupEnd(text) {
		return pstoken.Token{}, p.errorf("expected %q, found %q", text, p.text(p.cur()))
	}
	return p.advance(), nil
}

// parseScriptBody parses a statement list spanning [start,end) into a
// ScriptBlock with an implicit named block.
func (p *parser) parseScriptBody(start, end int) (*psast.ScriptBlock, error) {
	sb := &psast.ScriptBlock{Ext: p.ext(start, end)}
	block := &psast.NamedBlock{Ext: p.ext(start, end)}
	p.skipSeparators()
	// Optional leading param(...) block.
	if p.isKeyword("param") {
		pb, err := p.parseParamBlock()
		if err != nil {
			return nil, err
		}
		sb.Params = pb
		p.skipSeparators()
	}
	stmts, err := p.parseStatementList()
	if err != nil {
		return nil, err
	}
	block.Statements = stmts
	sb.Body = block
	return sb, nil
}

// parseStatementList parses statements until a group end or EOF.
func (p *parser) parseStatementList() ([]psast.Node, error) {
	var stmts []psast.Node
	for {
		p.skipSeparators()
		if p.atEnd() || p.cur().Type == pstoken.GroupEnd {
			return stmts, nil
		}
		st, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if st != nil {
			stmts = append(stmts, st)
		}
	}
}

// parseStatement parses one statement.
func (p *parser) parseStatement() (psast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Type == pstoken.LoopLabel {
		// The label is skipped: a loop runs the same labelled or not,
		// and a break or continue that names a label keeps it
		// (FlowStatement.Label).
		p.advance()
	}
	t = p.cur()
	if t.Type == pstoken.Keyword {
		switch strings.ToLower(t.Content) {
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "do":
			return p.parseDo()
		case "for":
			return p.parseFor()
		case "foreach":
			return p.parseForEach()
		case "switch":
			return p.parseSwitch()
		case "function", "filter", "workflow":
			return p.parseFunction()
		case "try":
			return p.parseTry()
		case "trap":
			return p.parseTrap()
		case "param":
			pb, err := p.parseParamBlock()
			if err != nil {
				return nil, err
			}
			return pb, nil
		case "begin", "process", "end":
			p.advance()
			p.skipNewlines()
			return p.parseBlock()
		case "return", "throw", "exit", "break", "continue":
			return p.parseFlow()
		case "class", "data", "using", "define", "var", "dynamicparam", "from", "workflow2":
			return nil, p.errorf("unsupported keyword %q", t.Content)
		default:
			return nil, p.errorf("unexpected keyword %q", t.Content)
		}
	}
	return p.parsePipelineStatement()
}

func (p *parser) parseParamBlock() (*psast.ParamBlock, error) {
	start := int(p.cur().Start)
	p.advance() // param
	p.skipNewlines()
	if !p.isGroupStart("(") {
		return nil, p.errorf("expected ( after param")
	}
	p.advance()
	params, err := p.parseParameterList()
	if err != nil {
		return nil, err
	}
	end, err := p.expectGroupEnd(")")
	if err != nil {
		return nil, err
	}
	return &psast.ParamBlock{Ext: p.ext(start, end.End()), Parameters: params}, nil
}

// parseParameterList parses comma-separated $name [= default] entries,
// skipping attribute-like type literals.
func (p *parser) parseParameterList() ([]*psast.Parameter, error) {
	var params []*psast.Parameter
	for {
		p.skipSeparators()
		if p.cur().Type == pstoken.GroupEnd {
			return params, nil
		}
		// Skip [Parameter(...)] and [type] annotations.
		for p.cur().Type == pstoken.TypeLiteral {
			p.advance()
			p.skipNewlines()
		}
		t := p.cur()
		if t.Type != pstoken.Variable {
			return nil, p.errorf("expected parameter variable, found %q", p.text(t))
		}
		p.advance()
		param := &psast.Parameter{Ext: p.tokExt(t), Name: t.Content}
		p.skipNewlines()
		if p.isOperator("=") {
			p.advance()
			p.skipNewlines()
			def, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			param.Default = def
			param.Ext.End = def.Extent().End
		}
		params = append(params, param)
		p.skipNewlines()
		if p.isOperator(",") {
			p.advance()
			continue
		}
		return params, nil
	}
}

// parseBlock parses a brace-delimited statement block.
func (p *parser) parseBlock() (*psast.StatementBlock, error) {
	p.skipNewlines()
	if !p.isGroupStart("{") {
		return nil, p.errorf("expected {, found %q", p.text(p.cur()))
	}
	start := int(p.cur().Start)
	p.advance()
	stmts, err := p.parseStatementList()
	if err != nil {
		return nil, err
	}
	end, err := p.expectGroupEnd("}")
	if err != nil {
		return nil, err
	}
	return &psast.StatementBlock{Ext: p.ext(start, end.End()), Statements: stmts}, nil
}

// parseParenPipeline parses ( pipeline-or-assignment ).
func (p *parser) parseParenPipeline() (psast.Node, error) {
	p.skipNewlines()
	if !p.isGroupStart("(") {
		return nil, p.errorf("expected (, found %q", p.text(p.cur()))
	}
	p.advance()
	p.skipSeparators()
	inner, err := p.parsePipelineStatement()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectGroupEnd(")"); err != nil {
		return nil, err
	}
	return inner, nil
}

func (p *parser) parseIf() (psast.Node, error) {
	start := int(p.cur().Start)
	node := &psast.If{}
	for {
		p.advance() // if / elseif
		cond, err := p.parseParenPipeline()
		if err != nil {
			return nil, err
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		node.Clauses = append(node.Clauses, psast.IfClause{Cond: cond, Body: body})
		node.Ext = p.ext(start, body.Ext.End-p.offset)
		// Peek past newlines for else/elseif without consuming the
		// separator if no clause follows.
		save := p.pos
		p.skipNewlines()
		if p.isKeyword("elseif") {
			continue
		}
		if p.isKeyword("else") {
			p.advance()
			elseBody, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			node.Else = elseBody
			node.Ext.End = elseBody.Ext.End
			return node, nil
		}
		p.pos = save
		return node, nil
	}
}

func (p *parser) parseWhile() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance()
	cond, err := p.parseParenPipeline()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &psast.While{Ext: p.ext(start, body.Ext.End-p.offset), Cond: cond, Body: body}, nil
}

func (p *parser) parseDo() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance()
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	until := false
	switch {
	case p.isKeyword("while"):
	case p.isKeyword("until"):
		until = true
	default:
		return nil, p.errorf("expected while or until after do block")
	}
	p.advance()
	cond, err := p.parseParenPipeline()
	if err != nil {
		return nil, err
	}
	end := cond.Extent().End
	if p.pos > 0 {
		end = p.toks[p.pos-1].End() + p.offset
	}
	return &psast.DoLoop{Ext: psast.Extent{Start: start + p.offset, End: end}, Body: body, Cond: cond, Until: until}, nil
}

func (p *parser) parseFor() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance()
	p.skipNewlines()
	if !p.isGroupStart("(") {
		return nil, p.errorf("expected ( after for")
	}
	p.advance()
	node := &psast.For{}
	part := func() (psast.Node, error) {
		p.skipNewlines()
		if p.cur().Type == pstoken.StatementSeparator || p.isGroupEnd(")") {
			return nil, nil
		}
		return p.parsePipelineStatement()
	}
	var err error
	if node.Init, err = part(); err != nil {
		return nil, err
	}
	if p.cur().Type == pstoken.StatementSeparator {
		p.advance()
	}
	if node.Cond, err = part(); err != nil {
		return nil, err
	}
	if p.cur().Type == pstoken.StatementSeparator {
		p.advance()
	}
	if node.Iter, err = part(); err != nil {
		return nil, err
	}
	if _, err := p.expectGroupEnd(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node.Body = body
	node.Ext = p.ext(start, body.Ext.End-p.offset)
	return node, nil
}

func (p *parser) parseForEach() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance()
	p.skipNewlines()
	if !p.isGroupStart("(") {
		return nil, p.errorf("expected ( after foreach")
	}
	p.advance()
	p.skipNewlines()
	vt := p.cur()
	if vt.Type != pstoken.Variable {
		return nil, p.errorf("expected loop variable, found %q", p.text(vt))
	}
	p.advance()
	p.skipNewlines()
	if !p.isKeyword("in") {
		return nil, p.errorf("expected in, found %q", p.text(p.cur()))
	}
	p.advance()
	coll, err := p.parseExpression()
	if err != nil {
		return nil, err
	}
	if _, err := p.expectGroupEnd(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &psast.ForEach{
		Ext:        p.ext(start, body.Ext.End-p.offset),
		Variable:   &psast.VariableExpression{Ext: p.tokExt(vt), Name: vt.Content},
		Collection: coll,
		Body:       body,
	}, nil
}

func (p *parser) parseSwitch() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance()
	p.skipNewlines()
	// Skip flags like -regex, -wildcard.
	for p.cur().Type == pstoken.CommandParameter {
		p.advance()
		p.skipNewlines()
	}
	node := &psast.Switch{}
	if p.isGroupStart("(") {
		cond, err := p.parseParenPipeline()
		if err != nil {
			return nil, err
		}
		node.Cond = cond
	}
	p.skipNewlines()
	if !p.isGroupStart("{") {
		return nil, p.errorf("expected { in switch")
	}
	p.advance()
	for {
		p.skipSeparators()
		if p.isGroupEnd("}") {
			break
		}
		var pattern psast.Node
		isDefault := false
		t := p.cur()
		if (t.Type == pstoken.Command || t.Type == pstoken.CommandArgument || t.Type == pstoken.Member) &&
			strings.EqualFold(t.Content, "default") {
			p.advance()
			isDefault = true
		} else {
			expr, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			pattern = expr
		}
		body, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		if isDefault {
			node.Default = body
		} else {
			node.Cases = append(node.Cases, psast.SwitchCase{Pattern: pattern, Body: body})
		}
	}
	end, err := p.expectGroupEnd("}")
	if err != nil {
		return nil, err
	}
	node.Ext = p.ext(start, end.End())
	return node, nil
}

func (p *parser) parseFunction() (psast.Node, error) {
	start := int(p.cur().Start)
	isFilter := strings.EqualFold(p.cur().Content, "filter")
	p.advance()
	p.skipNewlines()
	nameTok := p.cur()
	if nameTok.Type != pstoken.CommandArgument && nameTok.Type != pstoken.Command {
		return nil, p.errorf("expected function name, found %q", p.text(nameTok))
	}
	p.advance()
	node := &psast.FunctionDefinition{Name: nameTok.Content, IsFilter: isFilter}
	p.skipNewlines()
	if p.isGroupStart("(") {
		p.advance()
		params, err := p.parseParameterList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expectGroupEnd(")"); err != nil {
			return nil, err
		}
		node.Params = params
	}
	p.skipNewlines()
	if !p.isGroupStart("{") {
		return nil, p.errorf("expected { in function definition")
	}
	bodyStart := int(p.cur().Start)
	p.advance()
	inner, err := p.parseScriptBody(bodyStart+1, 0)
	if err != nil {
		return nil, err
	}
	end, err := p.expectGroupEnd("}")
	if err != nil {
		return nil, err
	}
	inner.Ext = p.ext(bodyStart, end.End())
	if inner.Body != nil {
		inner.Body.Ext = p.ext(bodyStart+1, int(end.Start))
	}
	node.Body = inner
	node.Ext = p.ext(start, end.End())
	return node, nil
}

func (p *parser) parseTry() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance()
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	node := &psast.Try{Body: body}
	endPos := body.Ext.End
	for {
		save := p.pos
		p.skipNewlines()
		if p.isKeyword("catch") {
			cstart := int(p.cur().Start)
			p.advance()
			p.skipNewlines()
			var types []string
			for p.cur().Type == pstoken.TypeLiteral {
				types = append(types, p.cur().Content)
				p.advance()
				p.skipNewlines()
				if p.isOperator(",") {
					p.advance()
					p.skipNewlines()
				}
			}
			cbody, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			node.Catches = append(node.Catches, &psast.CatchClause{
				Ext:   p.ext(cstart, cbody.Ext.End-p.offset),
				Types: types,
				Body:  cbody,
			})
			endPos = cbody.Ext.End
			continue
		}
		if p.isKeyword("finally") {
			p.advance()
			fbody, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			node.Finally = fbody
			endPos = fbody.Ext.End
			break
		}
		p.pos = save
		break
	}
	if len(node.Catches) == 0 && node.Finally == nil {
		return nil, p.errorf("try without catch or finally")
	}
	node.Ext = psast.Extent{Start: start + p.offset, End: endPos}
	return node, nil
}

func (p *parser) parseTrap() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance()
	p.skipNewlines()
	if p.cur().Type == pstoken.TypeLiteral {
		p.advance()
		p.skipNewlines()
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &psast.FlowStatement{
		Ext:     p.ext(start, body.Ext.End-p.offset),
		Keyword: "trap",
		Value:   &psast.ScriptBlockExpression{Ext: body.Ext, Body: &psast.ScriptBlock{Ext: body.Ext, Body: &psast.NamedBlock{Ext: body.Ext, Statements: body.Statements}}},
	}, nil
}

func (p *parser) parseFlow() (psast.Node, error) {
	t := p.advance()
	keyword := strings.ToLower(t.Content)
	node := &psast.FlowStatement{Ext: p.tokExt(t), Keyword: keyword}
	switch keyword {
	case "break", "continue":
		// Optional loop label, which lexes as a command name.
		if c := p.cur(); (c.Type == pstoken.Command || c.Type == pstoken.CommandArgument) && c.Line == t.Line {
			p.advance()
			node.Label = c.Content
			node.Ext.End = c.End() + p.offset
		}
		return node, nil
	}
	switch p.cur().Type {
	case pstoken.NewLine, pstoken.StatementSeparator, pstoken.GroupEnd, pstoken.Unknown:
		if p.atEnd() || p.cur().Type != pstoken.Unknown {
			return node, nil
		}
	}
	value, err := p.parsePipelineStatement()
	if err != nil {
		return nil, err
	}
	node.Value = value
	node.Ext.End = value.Extent().End
	return node, nil
}

var assignmentOps = map[string]bool{"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true}

// parsePipelineStatement parses a pipeline, promoting it to an
// assignment when an assignment operator follows the first expression.
func (p *parser) parsePipelineStatement() (psast.Node, error) {
	pipe, err := p.parsePipeline()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Type == pstoken.Operator && assignmentOps[t.Content] {
		left := assignmentTarget(pipe)
		if left == nil {
			return nil, p.errorf("invalid assignment target")
		}
		p.advance()
		p.skipNewlines()
		var right psast.Node
		var err error
		if p.cur().Type == pstoken.Keyword {
			// PowerShell allows statements as assignment values:
			// $x = if (...) { } else { }, $x = switch (...) { ... }.
			right, err = p.parseStatement()
		} else {
			right, err = p.parsePipelineStatement()
		}
		if err != nil {
			return nil, err
		}
		return &psast.Assignment{
			Ext:      psast.Extent{Start: left.Extent().Start, End: right.Extent().End},
			Left:     left,
			Operator: t.Content,
			Right:    right,
		}, nil
	}
	return pipe, nil
}

// assignmentTarget extracts an assignable expression from a parsed
// pipeline, or nil.
func assignmentTarget(n psast.Node) psast.Node {
	pipe, ok := n.(*psast.Pipeline)
	if !ok || len(pipe.Elements) != 1 {
		return nil
	}
	ce, ok := pipe.Elements[0].(*psast.CommandExpression)
	if !ok {
		return nil
	}
	switch ce.Expression.(type) {
	case *psast.VariableExpression, *psast.IndexExpression,
		*psast.MemberExpression, *psast.ArrayLiteral, *psast.ConvertExpression:
		return ce.Expression
	}
	return nil
}

// parsePipeline parses element (| element)*.
func (p *parser) parsePipeline() (psast.Node, error) {
	start := int(p.cur().Start)
	elem, err := p.parsePipelineElement()
	if err != nil {
		return nil, err
	}
	pipe := &psast.Pipeline{Elements: []psast.Node{elem}}
	end := elem.Extent().End
	for p.isOperator("|") || p.isOperator("||") {
		p.advance()
		p.skipNewlines()
		next, err := p.parsePipelineElement()
		if err != nil {
			return nil, err
		}
		pipe.Elements = append(pipe.Elements, next)
		end = next.Extent().End
	}
	if p.isOperator("&") {
		p.advance()
		pipe.Background = true
		end = p.toks[p.pos-1].End() + p.offset
	}
	pipe.Ext = psast.Extent{Start: start + p.offset, End: end}
	return pipe, nil
}

// parsePipelineElement parses a command or a command expression.
func (p *parser) parsePipelineElement() (psast.Node, error) {
	t := p.cur()
	switch {
	case t.Type == pstoken.Command:
		return p.parseCommand("")
	case t.Type == pstoken.Operator && (t.Content == "&" || t.Content == "."):
		op := t.Content
		p.advance()
		return p.parseCommand(op)
	case t.Type == pstoken.CommandParameter:
		// A stray parameter such as -join used oddly; treat the dash word
		// as a bare command (PowerShell errors here, but tolerate).
		return p.parseCommand("")
	default:
		expr, err := p.parseExpression()
		if err != nil {
			return nil, err
		}
		// An expression can still begin a command when followed by
		// arguments, e.g. a quoted command name "cmd" arg — PowerShell
		// treats leading strings as expressions, so no promotion here.
		return &psast.CommandExpression{Ext: expr.Extent(), Expression: expr}, nil
	}
}

// parseCommand parses a command invocation. invOp is "", "&" or ".".
func (p *parser) parseCommand(invOp string) (psast.Node, error) {
	start := int(p.cur().Start)
	if invOp != "" && p.pos > 0 {
		start = int(p.toks[p.pos-1].Start)
	}
	cmd := &psast.Command{InvocationOperator: invOp}
	// Command name.
	t := p.cur()
	switch t.Type {
	case pstoken.Command, pstoken.CommandArgument, pstoken.CommandParameter:
		p.advance()
		cmd.Name = &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true}
	case pstoken.String:
		p.advance()
		cmd.Name = p.stringNode(t)
	case pstoken.Variable:
		p.advance()
		cmd.Name = &psast.VariableExpression{Ext: p.tokExt(t), Name: t.Content}
	case pstoken.GroupStart:
		if t.Content != "(" && t.Content != "$(" && t.Content != "{" {
			return nil, p.errorf("unexpected %q as command name", p.text(t))
		}
		name, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		cmd.Name = name
	default:
		return nil, p.errorf("expected command name, found %q", p.text(t))
	}
	end := cmd.Name.Extent().End
	// Arguments.
	for {
		t := p.cur()
		switch t.Type {
		case pstoken.NewLine, pstoken.StatementSeparator, pstoken.GroupEnd, pstoken.Unknown:
			cmd.Ext = psast.Extent{Start: start + p.offset, End: end}
			return cmd, nil
		case pstoken.Operator:
			switch t.Content {
			case "|", "||", "&", "&&", "=":
				cmd.Ext = psast.Extent{Start: start + p.offset, End: end}
				return cmd, nil
			case ">", ">>":
				p.advance()
				p.skipNewlines()
				target := p.cur()
				p.advance()
				cmd.Redirections = append(cmd.Redirections, t.Content+" "+p.text(target))
				end = target.End() + p.offset
				continue
			case ",":
				// Comma joining the previous argument into an array.
				p.advance()
				p.skipNewlines()
				next, err := p.parseCommandArgument()
				if err != nil {
					return nil, err
				}
				if len(cmd.Args) == 0 {
					return nil, p.errorf("unexpected , in command")
				}
				last := cmd.Args[len(cmd.Args)-1]
				if arr, ok := last.(*psast.ArrayLiteral); ok {
					arr.Elements = append(arr.Elements, next)
					arr.Ext.End = next.Extent().End
				} else {
					cmd.Args[len(cmd.Args)-1] = &psast.ArrayLiteral{
						Ext:      psast.Extent{Start: last.Extent().Start, End: next.Extent().End},
						Elements: []psast.Node{last, next},
					}
				}
				end = next.Extent().End
				continue
			}
			// Other operators (e.g. 2> redirects tokenized oddly): treat
			// as bare-word argument.
			p.advance()
			cmd.Args = append(cmd.Args, &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true})
			end = t.End() + p.offset
		case pstoken.CommandParameter:
			p.advance()
			cp := &psast.CommandParameter{Ext: p.tokExt(t), Name: t.Content}
			if strings.HasSuffix(p.text(t), ":") {
				arg, err := p.parseCommandArgument()
				if err != nil {
					return nil, err
				}
				cp.Argument = arg
				cp.Ext.End = arg.Extent().End
			}
			cmd.Args = append(cmd.Args, cp)
			end = cp.Ext.End
		default:
			arg, err := p.parseCommandArgument()
			if err != nil {
				return nil, err
			}
			cmd.Args = append(cmd.Args, arg)
			end = arg.Extent().End
		}
	}
}

// parseCommandArgument parses a single command argument with postfix
// member/index access.
func (p *parser) parseCommandArgument() (psast.Node, error) {
	t := p.cur()
	var base psast.Node
	switch t.Type {
	case pstoken.CommandArgument, pstoken.Command, pstoken.Member, pstoken.Keyword:
		p.advance()
		base = &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true}
	case pstoken.Number:
		p.advance()
		v, perr := ParseNumber(t.Content)
		if perr != nil {
			base = &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true}
		} else {
			base = &psast.ConstantExpression{Ext: p.tokExt(t), Value: v, Text: t.Content}
		}
	case pstoken.String:
		p.advance()
		base = p.stringNode(t)
	case pstoken.Variable:
		p.advance()
		base = &psast.VariableExpression{Ext: p.tokExt(t), Name: t.Content}
		return p.parsePostfixFrom(base)
	case pstoken.GroupStart:
		prim, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return p.parsePostfixFrom(prim)
	default:
		return nil, p.errorf("unexpected token %q in command arguments", p.text(t))
	}
	return base, nil
}

func (p *parser) stringNode(t pstoken.Token) psast.Node {
	expandable := (t.Kind == pstoken.DoubleQuoted || t.Kind == pstoken.DoubleHereString) &&
		strings.ContainsRune(p.text(t), '$')
	if !expandable {
		value := t.Content
		if t.Kind == pstoken.DoubleHereString {
			value = unescapeHereString(value)
		}
		return &psast.StringConstant{
			Ext:          p.tokExt(t),
			Value:        value,
			SingleQuoted: t.Kind == pstoken.SingleQuoted,
			HereString:   t.Kind == pstoken.SingleHereString || t.Kind == pstoken.DoubleHereString,
		}
	}
	return p.parseExpandableString(t)
}
