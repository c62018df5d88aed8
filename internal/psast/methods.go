package psast

// This file implements the Node interface for every AST type.

// nonNil filters nil entries in place. Every caller passes an explicit
// argument list, so the variadic backing array is freshly allocated per
// call and safe to reuse as the result — Children() is on the hot path
// of both visiting and text reconstruction, and the second slice this
// used to allocate was one of the larger allocation sources in the
// whole pipeline.
func nonNil(nodes ...Node) []Node {
	out := nodes[:0]
	for _, n := range nodes {
		if n != nil {
			out = append(out, n)
		}
	}
	return out
}

// Extent implements Node.
func (n *ScriptBlock) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ScriptBlock) Kind() Kind { return KindScriptBlock }

// Children implements Node.
func (n *ScriptBlock) Children() []Node {
	var out []Node
	if n.Params != nil {
		out = append(out, n.Params)
	}
	if n.Body != nil {
		out = append(out, n.Body)
	}
	return out
}

// Extent implements Node.
func (n *ParamBlock) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ParamBlock) Kind() Kind { return KindParamBlock }

// Children implements Node.
func (n *ParamBlock) Children() []Node {
	out := make([]Node, len(n.Parameters))
	for i, p := range n.Parameters {
		out[i] = p
	}
	return out
}

// Extent implements Node.
func (n *Parameter) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Parameter) Kind() Kind { return KindParameter }

// Children implements Node.
func (n *Parameter) Children() []Node { return nonNil(n.Default) }

// Extent implements Node.
func (n *NamedBlock) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *NamedBlock) Kind() Kind { return KindNamedBlock }

// Children implements Node.
func (n *NamedBlock) Children() []Node { return n.Statements }

// Extent implements Node.
func (n *StatementBlock) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *StatementBlock) Kind() Kind { return KindStatementBlock }

// Children implements Node.
func (n *StatementBlock) Children() []Node { return n.Statements }

// Extent implements Node.
func (n *Pipeline) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Pipeline) Kind() Kind { return KindPipeline }

// Children implements Node.
func (n *Pipeline) Children() []Node { return n.Elements }

// Extent implements Node.
func (n *Command) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Command) Kind() Kind { return KindCommand }

// Children implements Node.
func (n *Command) Children() []Node {
	out := nonNil(n.Name)
	out = append(out, n.Args...)
	return out
}

// Extent implements Node.
func (n *CommandParameter) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *CommandParameter) Kind() Kind { return KindCommandParameter }

// Children implements Node.
func (n *CommandParameter) Children() []Node { return nonNil(n.Argument) }

// Extent implements Node.
func (n *CommandExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *CommandExpression) Kind() Kind { return KindCommandExpression }

// Children implements Node.
func (n *CommandExpression) Children() []Node { return nonNil(n.Expression) }

// Extent implements Node.
func (n *Assignment) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Assignment) Kind() Kind { return KindAssignment }

// Children implements Node.
func (n *Assignment) Children() []Node { return nonNil(n.Left, n.Right) }

// Extent implements Node.
func (n *If) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *If) Kind() Kind { return KindIf }

// Children implements Node.
func (n *If) Children() []Node {
	var out []Node
	for _, c := range n.Clauses {
		out = append(out, nonNil(c.Cond, c.Body)...)
	}
	if n.Else != nil {
		out = append(out, n.Else)
	}
	return out
}

// Extent implements Node.
func (n *While) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *While) Kind() Kind { return KindWhile }

// Children implements Node.
func (n *While) Children() []Node { return nonNil(n.Cond, n.Body) }

// Extent implements Node.
func (n *DoLoop) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *DoLoop) Kind() Kind { return KindDoLoop }

// Children implements Node.
func (n *DoLoop) Children() []Node { return nonNil(n.Body, n.Cond) }

// Extent implements Node.
func (n *For) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *For) Kind() Kind { return KindFor }

// Children implements Node.
func (n *For) Children() []Node { return nonNil(n.Init, n.Cond, n.Iter, n.Body) }

// Extent implements Node.
func (n *ForEach) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ForEach) Kind() Kind { return KindForEach }

// Children implements Node.
func (n *ForEach) Children() []Node {
	var out []Node
	if n.Variable != nil {
		out = append(out, n.Variable)
	}
	return append(out, nonNil(n.Collection, n.Body)...)
}

// Extent implements Node.
func (n *Switch) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Switch) Kind() Kind { return KindSwitch }

// Children implements Node.
func (n *Switch) Children() []Node {
	out := nonNil(n.Cond)
	for _, c := range n.Cases {
		out = append(out, nonNil(c.Pattern, c.Body)...)
	}
	if n.Default != nil {
		out = append(out, n.Default)
	}
	return out
}

// Extent implements Node.
func (n *FunctionDefinition) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *FunctionDefinition) Kind() Kind { return KindFunctionDefinition }

// Children implements Node.
func (n *FunctionDefinition) Children() []Node {
	var out []Node
	for _, p := range n.Params {
		out = append(out, p)
	}
	if n.Body != nil {
		out = append(out, n.Body)
	}
	return out
}

// Extent implements Node.
func (n *CatchClause) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *CatchClause) Kind() Kind { return KindCatchClause }

// Children implements Node.
func (n *CatchClause) Children() []Node { return nonNil(n.Body) }

// Extent implements Node.
func (n *Try) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Try) Kind() Kind { return KindTry }

// Children implements Node.
func (n *Try) Children() []Node {
	out := nonNil(n.Body)
	for _, c := range n.Catches {
		out = append(out, c)
	}
	if n.Finally != nil {
		out = append(out, n.Finally)
	}
	return out
}

// Extent implements Node.
func (n *FlowStatement) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *FlowStatement) Kind() Kind { return KindFlowStatement }

// Children implements Node.
func (n *FlowStatement) Children() []Node { return nonNil(n.Value) }

// Extent implements Node.
func (n *BinaryExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *BinaryExpression) Kind() Kind { return KindBinaryExpression }

// Children implements Node.
func (n *BinaryExpression) Children() []Node { return nonNil(n.Left, n.Right) }

// Extent implements Node.
func (n *UnaryExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *UnaryExpression) Kind() Kind { return KindUnaryExpression }

// Children implements Node.
func (n *UnaryExpression) Children() []Node { return nonNil(n.Operand) }

// Extent implements Node.
func (n *ConvertExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ConvertExpression) Kind() Kind { return KindConvertExpression }

// Children implements Node.
func (n *ConvertExpression) Children() []Node { return nonNil(n.Operand) }

// Extent implements Node.
func (n *TypeExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *TypeExpression) Kind() Kind { return KindTypeExpression }

// Children implements Node.
func (n *TypeExpression) Children() []Node { return nil }

// Extent implements Node.
func (n *ConstantExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ConstantExpression) Kind() Kind { return KindConstantExpression }

// Children implements Node.
func (n *ConstantExpression) Children() []Node { return nil }

// Extent implements Node.
func (n *StringConstant) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *StringConstant) Kind() Kind { return KindStringConstant }

// Children implements Node.
func (n *StringConstant) Children() []Node { return nil }

// Extent implements Node.
func (n *ExpandableString) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ExpandableString) Kind() Kind { return KindExpandableString }

// Children implements Node.
func (n *ExpandableString) Children() []Node { return n.Parts }

// Extent implements Node.
func (n *VariableExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *VariableExpression) Kind() Kind { return KindVariableExpression }

// Children implements Node.
func (n *VariableExpression) Children() []Node { return nil }

// Extent implements Node.
func (n *MemberExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *MemberExpression) Kind() Kind { return KindMemberExpression }

// Children implements Node.
func (n *MemberExpression) Children() []Node { return nonNil(n.Target, n.Member) }

// Extent implements Node.
func (n *InvokeMemberExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *InvokeMemberExpression) Kind() Kind { return KindInvokeMemberExpression }

// Children implements Node.
func (n *InvokeMemberExpression) Children() []Node {
	out := nonNil(n.Target, n.Member)
	return append(out, n.Args...)
}

// Extent implements Node.
func (n *IndexExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *IndexExpression) Kind() Kind { return KindIndexExpression }

// Children implements Node.
func (n *IndexExpression) Children() []Node { return nonNil(n.Target, n.Index) }

// Extent implements Node.
func (n *ArrayLiteral) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ArrayLiteral) Kind() Kind { return KindArrayLiteral }

// Children implements Node.
func (n *ArrayLiteral) Children() []Node { return n.Elements }

// Extent implements Node.
func (n *ArrayExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ArrayExpression) Kind() Kind { return KindArrayExpression }

// Children implements Node.
func (n *ArrayExpression) Children() []Node { return n.Statements }

// Extent implements Node.
func (n *SubExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *SubExpression) Kind() Kind { return KindSubExpression }

// Children implements Node.
func (n *SubExpression) Children() []Node { return n.Statements }

// Extent implements Node.
func (n *ParenExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ParenExpression) Kind() Kind { return KindParenExpression }

// Children implements Node.
func (n *ParenExpression) Children() []Node { return nonNil(n.Pipeline) }

// Extent implements Node.
func (n *ScriptBlockExpression) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *ScriptBlockExpression) Kind() Kind { return KindScriptBlockExpression }

// Children implements Node.
func (n *ScriptBlockExpression) Children() []Node {
	if n.Body == nil {
		return nil
	}
	return []Node{n.Body}
}

// Extent implements Node.
func (n *Hashtable) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Hashtable) Kind() Kind { return KindHashtable }

// Children implements Node.
func (n *Hashtable) Children() []Node {
	var out []Node
	for _, e := range n.Entries {
		out = append(out, nonNil(e.Key, e.Value)...)
	}
	return out
}

// Extent implements Node.
func (n *Evaluated) Extent() Extent { return n.Ext }

// Kind implements Node.
func (n *Evaluated) Kind() Kind { return KindEvaluated }

// Children implements Node.
func (n *Evaluated) Children() []Node { return nonNil(n.Node) }
