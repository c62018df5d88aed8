package psparser

import (
	"strconv"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
)

// Operator precedence tables. Each entry maps a lower-cased operator to
// true; the parser climbs from logical (loosest) to comma (tightest
// n-ary level) before unary and postfix operators.
var (
	logicalOps = map[string]bool{"-and": true, "-or": true, "-xor": true}
	bitwiseOps = map[string]bool{"-band": true, "-bor": true, "-bxor": true}
	// comparisonOps includes case variants: -ieq, -ceq, etc.
	comparisonOps = buildComparisonOps()
	additiveOps   = map[string]bool{"+": true, "-": true}
	multOps       = map[string]bool{"*": true, "/": true, "%": true}
	unaryOps      = map[string]bool{
		"!": true, "-not": true, "-bnot": true, "-": true, "+": true,
		"-join": true, "-split": true, "--": true, "++": true,
	}
)

func buildComparisonOps() map[string]bool {
	base := []string{
		"eq", "ne", "gt", "ge", "lt", "le", "like", "notlike", "match",
		"notmatch", "contains", "notcontains", "in", "notin", "replace",
		"split", "join",
	}
	ops := map[string]bool{
		"-is": true, "-isnot": true, "-as": true, "-shl": true, "-shr": true,
	}
	for _, b := range base {
		ops["-"+b] = true
		ops["-c"+b] = true
		ops["-i"+b] = true
	}
	return ops
}

// parseExpression parses a full expression (loosest precedence).
func (p *parser) parseExpression() (psast.Node, error) {
	return p.parseBinary(logicalOps, func() (psast.Node, error) {
		return p.parseBinary(bitwiseOps, func() (psast.Node, error) {
			return p.parseBinary(comparisonOps, func() (psast.Node, error) {
				return p.parseBinary(additiveOps, func() (psast.Node, error) {
					return p.parseBinary(multOps, p.parseFormat)
				})
			})
		})
	})
}

// parseBinary parses a left-associative binary chain at one precedence
// level.
func (p *parser) parseBinary(ops map[string]bool, next func() (psast.Node, error)) (psast.Node, error) {
	left, err := next()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Type != pstoken.Operator || !ops[strings.ToLower(t.Content)] {
			return left, nil
		}
		p.advance()
		p.skipNewlines()
		right, err := next()
		if err != nil {
			return nil, err
		}
		left = &psast.BinaryExpression{
			Ext:      psast.Extent{Start: left.Extent().Start, End: right.Extent().End},
			Operator: strings.ToLower(t.Content),
			Left:     left,
			Right:    right,
		}
	}
}

// parseFormat parses the -f format operator level.
func (p *parser) parseFormat() (psast.Node, error) {
	left, err := p.parseRange()
	if err != nil {
		return nil, err
	}
	for p.isOperator("-f") {
		p.advance()
		p.skipNewlines()
		right, err := p.parseRange()
		if err != nil {
			return nil, err
		}
		left = &psast.BinaryExpression{
			Ext:      psast.Extent{Start: left.Extent().Start, End: right.Extent().End},
			Operator: "-f",
			Left:     left,
			Right:    right,
		}
	}
	return left, nil
}

// parseRange parses the .. range operator level.
func (p *parser) parseRange() (psast.Node, error) {
	left, err := p.parseArray()
	if err != nil {
		return nil, err
	}
	for p.isOperator("..") {
		p.advance()
		p.skipNewlines()
		right, err := p.parseArray()
		if err != nil {
			return nil, err
		}
		left = &psast.BinaryExpression{
			Ext:      psast.Extent{Start: left.Extent().Start, End: right.Extent().End},
			Operator: "..",
			Left:     left,
			Right:    right,
		}
	}
	return left, nil
}

// parseArray parses the comma (array constructor) level.
func (p *parser) parseArray() (psast.Node, error) {
	// Unary comma builds a one-element array.
	if p.isOperator(",") {
		start := int(p.cur().Start)
		p.advance()
		p.skipNewlines()
		elem, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &psast.ArrayLiteral{
			Ext:      psast.Extent{Start: start + p.offset, End: elem.Extent().End},
			Elements: []psast.Node{elem},
		}, nil
	}
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	if !p.isOperator(",") {
		return first, nil
	}
	arr := &psast.ArrayLiteral{Elements: []psast.Node{first}}
	for p.isOperator(",") {
		p.advance()
		p.skipNewlines()
		elem, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		arr.Elements = append(arr.Elements, elem)
	}
	arr.Ext = psast.Extent{
		Start: first.Extent().Start,
		End:   arr.Elements[len(arr.Elements)-1].Extent().End,
	}
	return arr, nil
}

// parseUnary parses prefix unary operators and type casts.
func (p *parser) parseUnary() (psast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.Type == pstoken.Operator && unaryOps[strings.ToLower(t.Content)] {
		p.advance()
		p.skipNewlines()
		operand, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &psast.UnaryExpression{
			Ext:      psast.Extent{Start: int(t.Start) + p.offset, End: operand.Extent().End},
			Operator: strings.ToLower(t.Content),
			Operand:  operand,
		}, nil
	}
	if t.Type == pstoken.TypeLiteral {
		next := p.peek(1)
		// [type]::Member is postfix (static access); [type] followed by
		// an operand is a cast; otherwise a bare type expression.
		if next.Type == pstoken.Operator && next.Content == "::" {
			return p.parsePostfix()
		}
		if startsOperand(next) {
			p.advance()
			operand, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &psast.ConvertExpression{
				Ext:      psast.Extent{Start: int(t.Start) + p.offset, End: operand.Extent().End},
				TypeName: t.Content,
				Operand:  operand,
			}, nil
		}
		p.advance()
		return &psast.TypeExpression{Ext: p.tokExt(t), TypeName: t.Content}, nil
	}
	return p.parsePostfix()
}

// startsOperand reports whether t can begin an expression operand.
func startsOperand(t pstoken.Token) bool {
	switch t.Type {
	case pstoken.Number, pstoken.String, pstoken.Variable, pstoken.TypeLiteral:
		return true
	case pstoken.GroupStart:
		return true
	case pstoken.Operator:
		return unaryOps[strings.ToLower(t.Content)]
	}
	return false
}

// parsePostfix parses a primary expression followed by member access,
// static access, indexing, method invocation and ++/--.
func (p *parser) parsePostfix() (psast.Node, error) {
	base, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	return p.parsePostfixFrom(base)
}

func (p *parser) parsePostfixFrom(base psast.Node) (psast.Node, error) {
	for {
		t := p.cur()
		switch {
		case t.Type == pstoken.Operator && (t.Content == "." || t.Content == "::"):
			static := t.Content == "::"
			p.advance()
			member, err := p.parseMemberName()
			if err != nil {
				return nil, err
			}
			// Attached ( begins a method invocation.
			if p.isGroupStart("(") && int(p.cur().Start) == memberEnd(member)-p.offset {
				p.advance()
				args, err := p.parseInvocationArgs()
				if err != nil {
					return nil, err
				}
				end, err := p.expectGroupEnd(")")
				if err != nil {
					return nil, err
				}
				base = &psast.InvokeMemberExpression{
					Ext:    psast.Extent{Start: base.Extent().Start, End: end.End() + p.offset},
					Target: base,
					Member: member,
					Static: static,
					Args:   args,
				}
				continue
			}
			base = &psast.MemberExpression{
				Ext:    psast.Extent{Start: base.Extent().Start, End: member.Extent().End},
				Target: base,
				Member: member,
				Static: static,
			}
		case t.Type == pstoken.GroupStart && t.Content == "[":
			p.advance()
			p.skipNewlines()
			idx, err := p.parseExpression()
			if err != nil {
				return nil, err
			}
			end, err := p.expectGroupEnd("]")
			if err != nil {
				return nil, err
			}
			base = &psast.IndexExpression{
				Ext:    psast.Extent{Start: base.Extent().Start, End: end.End() + p.offset},
				Target: base,
				Index:  idx,
			}
		case t.Type == pstoken.GroupStart && t.Content == "(" && base.Kind() == psast.KindMemberExpression && int(t.Start)+p.offset == base.Extent().End:
			// Method call written with whitespace elsewhere collapsed:
			// target.member(...) parsed as member then invocation.
			me := base.(*psast.MemberExpression)
			p.advance()
			args, err := p.parseInvocationArgs()
			if err != nil {
				return nil, err
			}
			end, err := p.expectGroupEnd(")")
			if err != nil {
				return nil, err
			}
			base = &psast.InvokeMemberExpression{
				Ext:    psast.Extent{Start: me.Ext.Start, End: end.End() + p.offset},
				Target: me.Target,
				Member: me.Member,
				Static: me.Static,
				Args:   args,
			}
		case t.Type == pstoken.Operator && (t.Content == "++" || t.Content == "--"):
			p.advance()
			base = &psast.UnaryExpression{
				Ext:      psast.Extent{Start: base.Extent().Start, End: t.End() + p.offset},
				Operator: t.Content,
				Operand:  base,
				Postfix:  true,
			}
		default:
			return base, nil
		}
	}
}

func memberEnd(m psast.Node) int { return m.Extent().End }

// parseMemberName parses the name after . or :: — a bare word, string,
// variable, or parenthesized expression.
func (p *parser) parseMemberName() (psast.Node, error) {
	t := p.cur()
	switch t.Type {
	case pstoken.Member, pstoken.CommandArgument, pstoken.Command, pstoken.Keyword, pstoken.Number:
		p.advance()
		return &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true}, nil
	case pstoken.String:
		p.advance()
		return p.stringNode(t), nil
	case pstoken.Variable:
		p.advance()
		return &psast.VariableExpression{Ext: p.tokExt(t), Name: t.Content}, nil
	case pstoken.GroupStart:
		if t.Content == "(" || t.Content == "$(" {
			return p.parsePrimary()
		}
	}
	return nil, p.errorf("expected member name, found %q", p.text(t))
}

// parseInvocationArgs parses a comma-separated method argument list.
func (p *parser) parseInvocationArgs() ([]psast.Node, error) {
	var args []psast.Node
	p.skipNewlines()
	if p.isGroupEnd(")") {
		return args, nil
	}
	for {
		p.skipNewlines()
		arg, err := p.parseExpressionNoComma()
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
		p.skipNewlines()
		if p.isOperator(",") {
			p.advance()
			continue
		}
		return args, nil
	}
}

// parseExpressionNoComma parses an expression treating , as an argument
// separator rather than an array constructor.
func (p *parser) parseExpressionNoComma() (psast.Node, error) {
	return p.parseBinary(logicalOps, func() (psast.Node, error) {
		return p.parseBinary(bitwiseOps, func() (psast.Node, error) {
			return p.parseBinary(comparisonOps, func() (psast.Node, error) {
				return p.parseBinary(additiveOps, func() (psast.Node, error) {
					return p.parseBinary(multOps, func() (psast.Node, error) {
						left, err := p.parseRangeNoComma()
						if err != nil {
							return nil, err
						}
						for p.isOperator("-f") {
							p.advance()
							p.skipNewlines()
							right, err := p.parseRangeNoComma()
							if err != nil {
								return nil, err
							}
							left = &psast.BinaryExpression{
								Ext:      psast.Extent{Start: left.Extent().Start, End: right.Extent().End},
								Operator: "-f",
								Left:     left,
								Right:    right,
							}
						}
						return left, nil
					})
				})
			})
		})
	})
}

func (p *parser) parseRangeNoComma() (psast.Node, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isOperator("..") {
		p.advance()
		p.skipNewlines()
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &psast.BinaryExpression{
			Ext:      psast.Extent{Start: left.Extent().Start, End: right.Extent().End},
			Operator: "..",
			Left:     left,
			Right:    right,
		}
	}
	return left, nil
}

// parsePrimary parses a primary expression.
func (p *parser) parsePrimary() (psast.Node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch t.Type {
	case pstoken.Number:
		p.advance()
		v, err := ParseNumber(t.Content)
		if err != nil {
			return &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true}, nil
		}
		return &psast.ConstantExpression{Ext: p.tokExt(t), Value: v, Text: t.Content}, nil
	case pstoken.String:
		p.advance()
		return p.stringNode(t), nil
	case pstoken.Variable:
		p.advance()
		return &psast.VariableExpression{Ext: p.tokExt(t), Name: t.Content}, nil
	case pstoken.TypeLiteral:
		p.advance()
		return &psast.TypeExpression{Ext: p.tokExt(t), TypeName: t.Content}, nil
	case pstoken.CommandArgument, pstoken.Member:
		// Bare word in expression position (tolerated).
		p.advance()
		return &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true}, nil
	case pstoken.GroupStart:
		switch t.Content {
		case "(":
			start := int(t.Start)
			p.advance()
			p.skipSeparators()
			inner, err := p.parsePipelineStatement()
			if err != nil {
				return nil, err
			}
			end, err := p.expectGroupEnd(")")
			if err != nil {
				return nil, err
			}
			return &psast.ParenExpression{Ext: p.ext(start, end.End()), Pipeline: inner}, nil
		case "$(":
			start := int(t.Start)
			p.advance()
			stmts, err := p.parseStatementList()
			if err != nil {
				return nil, err
			}
			end, err := p.expectGroupEnd(")")
			if err != nil {
				return nil, err
			}
			return &psast.SubExpression{Ext: p.ext(start, end.End()), Statements: stmts}, nil
		case "@(":
			start := int(t.Start)
			p.advance()
			stmts, err := p.parseStatementList()
			if err != nil {
				return nil, err
			}
			end, err := p.expectGroupEnd(")")
			if err != nil {
				return nil, err
			}
			return &psast.ArrayExpression{Ext: p.ext(start, end.End()), Statements: stmts}, nil
		case "@{":
			return p.parseHashtable()
		case "{":
			start := int(t.Start)
			p.advance()
			inner, err := p.parseScriptBody(start+1, 0)
			if err != nil {
				return nil, err
			}
			end, err := p.expectGroupEnd("}")
			if err != nil {
				return nil, err
			}
			inner.Ext = p.ext(start, end.End())
			if inner.Body != nil {
				inner.Body.Ext = p.ext(start+1, int(end.Start))
			}
			return &psast.ScriptBlockExpression{
				Ext:    p.ext(start, end.End()),
				Body:   inner,
				Source: p.src[start+1 : int(end.Start)],
			}, nil
		}
		return nil, p.errorf("unexpected group %q", p.text(t))
	}
	return nil, p.errorf("unexpected token %q in expression", p.text(t))
}

// parseHashtable parses @{ key = value ; ... }.
func (p *parser) parseHashtable() (psast.Node, error) {
	start := int(p.cur().Start)
	p.advance() // @{
	node := &psast.Hashtable{}
	for {
		p.skipSeparators()
		if p.isGroupEnd("}") {
			break
		}
		var key psast.Node
		t := p.cur()
		switch t.Type {
		case pstoken.Member, pstoken.Command, pstoken.CommandArgument, pstoken.Keyword:
			p.advance()
			key = &psast.StringConstant{Ext: p.tokExt(t), Value: t.Content, Bare: true}
		case pstoken.String:
			p.advance()
			key = p.stringNode(t)
		case pstoken.Number:
			p.advance()
			v, err := ParseNumber(t.Content)
			if err != nil {
				v = t.Content
			}
			key = &psast.ConstantExpression{Ext: p.tokExt(t), Value: v, Text: t.Content}
		case pstoken.Variable:
			p.advance()
			key = &psast.VariableExpression{Ext: p.tokExt(t), Name: t.Content}
		default:
			return nil, p.errorf("unexpected hashtable key %q", p.text(t))
		}
		p.skipNewlines()
		if !p.isOperator("=") {
			return nil, p.errorf("expected = in hashtable, found %q", p.text(p.cur()))
		}
		p.advance()
		p.skipNewlines()
		value, err := p.parsePipelineStatement()
		if err != nil {
			return nil, err
		}
		node.Entries = append(node.Entries, psast.HashEntry{Key: key, Value: value})
	}
	end, err := p.expectGroupEnd("}")
	if err != nil {
		return nil, err
	}
	node.Ext = p.ext(start, end.End())
	return node, nil
}

// numberMultipliers are the kb/mb/gb/tb/pb suffixes of numeric
// literals. No two can end the same text, so their order is free.
var numberMultipliers = [...]struct {
	suffix string
	mult   int64
}{
	{"kb", 1 << 10}, {"mb", 1 << 20}, {"gb", 1 << 30}, {"tb", 1 << 40}, {"pb", 1 << 50},
}

// ParseNumber converts a PowerShell numeric literal to int64 or float64,
// handling hex, exponents, the d/l type suffixes and kb/mb/gb/tb/pb
// multipliers.
func ParseNumber(s string) (any, error) {
	if n, ok := parsePlainDecimal(s); ok {
		return n, nil
	}
	text := strings.ToLower(strings.TrimSpace(s))
	if text == "" {
		return nil, strconv.ErrSyntax
	}
	neg := false
	switch text[0] {
	case '-':
		neg = true
		text = text[1:]
	case '+':
		text = text[1:]
	}
	if text == "" || text[0] == '-' || text[0] == '+' {
		return nil, strconv.ErrSyntax
	}
	mult := int64(1)
	for _, m := range numberMultipliers {
		if strings.HasSuffix(text, m.suffix) {
			text = strings.TrimSuffix(text, m.suffix)
			mult = m.mult
			break
		}
	}
	if strings.HasPrefix(text, "0x") {
		// Hex literals take only the long suffix; "d" is a hex digit
		// (0x6d is 109, not decimal 0x6), so suffix stripping must not
		// eat it.
		text = strings.TrimSuffix(text, "l")
		v, err := strconv.ParseUint(text[2:], 16, 64)
		if err != nil {
			return nil, err
		}
		n := int64(v) * mult
		if neg {
			n = -n
		}
		return n, nil
	}
	isDecimal := false
	if strings.HasSuffix(text, "d") {
		isDecimal = true
		text = strings.TrimSuffix(text, "d")
	}
	text = strings.TrimSuffix(text, "l")
	if !isDecimal && !strings.ContainsAny(text, ".e") {
		v, err := strconv.ParseInt(text, 10, 64)
		if err == nil {
			n := v * mult
			if neg {
				n = -n
			}
			return n, nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, err
	}
	f *= float64(mult)
	if neg {
		f = -f
	}
	return f, nil
}

// parsePlainDecimal parses an optional sign followed by 1 to 18 ASCII
// digits, the form string-to-number conversions meet on every element
// of a decimal decoder. Eighteen digits cannot overflow int64, so the
// value is the one the general grammar in ParseNumber yields.
func parsePlainDecimal(s string) (int64, bool) {
	digits := s
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		digits = s[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return 0, false
	}
	var n int64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if s[0] == '-' {
		n = -n
	}
	return n, true
}
