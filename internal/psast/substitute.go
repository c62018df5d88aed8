package psast

// Substitute returns n with subtrees replaced as f directs. f is called
// top-down on each node reached: (m, true) puts m in the node's place —
// m may be the node itself, which keeps its whole subtree — and
// (_, false) descends into the node's children. Only the nodes on a
// path to a replacement are copied; every other subtree is shared with
// n, which is never modified (cached ASTs are shared across runs and
// goroutines). Extents are kept as they are. Substitute returns nil when
// f returns (nil, true), which abandons the substitution, when a field
// that holds one node type (a statement block, say) would receive
// another, or for an unknown node kind.
func Substitute(n Node, f func(Node) (Node, bool)) Node {
	s := &substituter{f: f}
	out := s.node(n)
	if s.failed {
		return nil
	}
	return out
}

type substituter struct {
	f      func(Node) (Node, bool)
	failed bool
}

func (s *substituter) node(n Node) Node {
	if n == nil || s.failed {
		return n
	}
	if m, done := s.f(n); done {
		if m == nil {
			s.failed = true
		}
		return m
	}
	out := rebuild(n, s)
	if out == nil {
		s.failed = true
	}
	return out
}

// rebuild returns a copy of n with its extents as they are and each
// child mapped by m.node: Substitute's per-kind walk. It returns nil for
// an unknown node kind.
func rebuild(n Node, m *substituter) Node {
	switch x := n.(type) {
	case *ScriptBlock:
		return &ScriptBlock{Ext: x.Ext, Params: typed(m, x.Params), Body: typed(m, x.Body)}
	case *ParamBlock:
		return &ParamBlock{Ext: x.Ext, Parameters: typedSlice(m, x.Parameters)}
	case *Parameter:
		return &Parameter{Ext: x.Ext, Name: x.Name, Default: m.node(x.Default)}
	case *NamedBlock:
		return &NamedBlock{Ext: x.Ext, Statements: nodeSlice(m, x.Statements)}
	case *StatementBlock:
		return &StatementBlock{Ext: x.Ext, Statements: nodeSlice(m, x.Statements)}
	case *Pipeline:
		return &Pipeline{Ext: x.Ext, Elements: nodeSlice(m, x.Elements), Background: x.Background}
	case *Command:
		return &Command{
			Ext:                x.Ext,
			InvocationOperator: x.InvocationOperator,
			Name:               m.node(x.Name),
			Args:               nodeSlice(m, x.Args),
			Redirections:       x.Redirections,
		}
	case *CommandParameter:
		return &CommandParameter{Ext: x.Ext, Name: x.Name, Argument: m.node(x.Argument)}
	case *CommandExpression:
		return &CommandExpression{Ext: x.Ext, Expression: m.node(x.Expression)}
	case *Assignment:
		return &Assignment{Ext: x.Ext, Left: m.node(x.Left), Operator: x.Operator, Right: m.node(x.Right)}
	case *If:
		out := &If{Ext: x.Ext, Else: typed(m, x.Else)}
		if x.Clauses != nil {
			out.Clauses = make([]IfClause, len(x.Clauses))
			for i, cl := range x.Clauses {
				out.Clauses[i] = IfClause{Cond: m.node(cl.Cond), Body: typed(m, cl.Body)}
			}
		}
		return out
	case *While:
		return &While{Ext: x.Ext, Cond: m.node(x.Cond), Body: typed(m, x.Body)}
	case *DoLoop:
		return &DoLoop{Ext: x.Ext, Body: typed(m, x.Body), Cond: m.node(x.Cond), Until: x.Until}
	case *For:
		return &For{
			Ext:  x.Ext,
			Init: m.node(x.Init), Cond: m.node(x.Cond), Iter: m.node(x.Iter),
			Body: typed(m, x.Body),
		}
	case *ForEach:
		return &ForEach{Ext: x.Ext, Variable: typed(m, x.Variable), Collection: m.node(x.Collection), Body: typed(m, x.Body)}
	case *Switch:
		out := &Switch{Ext: x.Ext, Cond: m.node(x.Cond), Default: typed(m, x.Default)}
		if x.Cases != nil {
			out.Cases = make([]SwitchCase, len(x.Cases))
			for i, c := range x.Cases {
				out.Cases[i] = SwitchCase{Pattern: m.node(c.Pattern), Body: typed(m, c.Body)}
			}
		}
		return out
	case *FunctionDefinition:
		return &FunctionDefinition{
			Ext: x.Ext, Name: x.Name, IsFilter: x.IsFilter,
			Params: typedSlice(m, x.Params), Body: typed(m, x.Body),
		}
	case *Try:
		return &Try{
			Ext: x.Ext, Body: typed(m, x.Body),
			Catches: typedSlice(m, x.Catches), Finally: typed(m, x.Finally),
		}
	case *CatchClause:
		return &CatchClause{Ext: x.Ext, Types: x.Types, Body: typed(m, x.Body)}
	case *FlowStatement:
		return &FlowStatement{Ext: x.Ext, Keyword: x.Keyword, Value: m.node(x.Value), Label: x.Label}
	case *BinaryExpression:
		return &BinaryExpression{Ext: x.Ext, Operator: x.Operator, Left: m.node(x.Left), Right: m.node(x.Right)}
	case *UnaryExpression:
		return &UnaryExpression{Ext: x.Ext, Operator: x.Operator, Operand: m.node(x.Operand), Postfix: x.Postfix}
	case *ConvertExpression:
		return &ConvertExpression{Ext: x.Ext, TypeName: x.TypeName, Operand: m.node(x.Operand)}
	case *TypeExpression:
		return &TypeExpression{Ext: x.Ext, TypeName: x.TypeName}
	case *ConstantExpression:
		return &ConstantExpression{Ext: x.Ext, Value: x.Value, Text: x.Text}
	case *StringConstant:
		return &StringConstant{Ext: x.Ext, Value: x.Value, Bare: x.Bare, SingleQuoted: x.SingleQuoted, HereString: x.HereString}
	case *ExpandableString:
		return &ExpandableString{Ext: x.Ext, Raw: x.Raw, Parts: nodeSlice(m, x.Parts)}
	case *VariableExpression:
		return &VariableExpression{Ext: x.Ext, Name: x.Name, Splatted: x.Splatted}
	case *MemberExpression:
		return &MemberExpression{Ext: x.Ext, Target: m.node(x.Target), Member: m.node(x.Member), Static: x.Static}
	case *InvokeMemberExpression:
		return &InvokeMemberExpression{
			Ext:    x.Ext,
			Target: m.node(x.Target), Member: m.node(x.Member),
			Static: x.Static, Args: nodeSlice(m, x.Args),
		}
	case *IndexExpression:
		return &IndexExpression{Ext: x.Ext, Target: m.node(x.Target), Index: m.node(x.Index)}
	case *ArrayLiteral:
		return &ArrayLiteral{Ext: x.Ext, Elements: nodeSlice(m, x.Elements)}
	case *ArrayExpression:
		return &ArrayExpression{Ext: x.Ext, Statements: nodeSlice(m, x.Statements)}
	case *SubExpression:
		return &SubExpression{Ext: x.Ext, Statements: nodeSlice(m, x.Statements)}
	case *ParenExpression:
		return &ParenExpression{Ext: x.Ext, Pipeline: m.node(x.Pipeline)}
	case *ScriptBlockExpression:
		return &ScriptBlockExpression{Ext: x.Ext, Body: typed(m, x.Body), Source: x.Source}
	case *Hashtable:
		out := &Hashtable{Ext: x.Ext}
		if x.Entries != nil {
			out.Entries = make([]HashEntry, len(x.Entries))
			for i, e := range x.Entries {
				out.Entries[i] = HashEntry{Key: m.node(e.Key), Value: m.node(e.Value)}
			}
		}
		return out
	default:
		return nil
	}
}

// typed maps a child held in a field of one node type, keeping nil as
// nil. A child mapped to another type fails the substitution.
func typed[T Node](m *substituter, x T) T {
	var zero T
	if Node(x) == Node(zero) {
		return zero
	}
	out, ok := m.node(x).(T)
	if !ok {
		m.failed = true
	}
	return out
}

func typedSlice[T Node](m *substituter, xs []T) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = typed(m, x)
	}
	return out
}

func nodeSlice(m *substituter, ns []Node) []Node {
	if ns == nil {
		return nil
	}
	out := make([]Node, len(ns))
	for i, n := range ns {
		out[i] = m.node(n)
	}
	return out
}
