package psinterp

import (
	"fmt"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
)

// maxExprDepth bounds AST recursion inside one expression evaluation so
// a deeply nested tree (thousands of parens/unary operators) cannot
// exhaust the goroutine stack. The parser enforces its own, larger
// nesting limit; this guard is the interpreter's independent backstop.
const maxExprDepth = 10_000

// evalExpr evaluates one expression node. It tracks the nesting depth
// without a defer: a panic unwinding through here leaves exprDepth
// raised, and EvalScript's recover barrier restores it.
func (in *Interp) evalExpr(node psast.Node, sc *scope) (any, error) {
	if err := in.step(); err != nil {
		return nil, err
	}
	if in.exprDepth >= maxExprDepth {
		return nil, ErrBudget
	}
	in.exprDepth++
	if in.exprDepth > in.peakDepth {
		in.peakDepth = in.exprDepth
	}
	v, err := in.evalExprNode(node, sc)
	in.exprDepth--
	return v, err
}

func (in *Interp) evalExprNode(node psast.Node, sc *scope) (any, error) {
	switch n := node.(type) {
	case *psast.ConstantExpression:
		return n.Value, nil
	case *psast.StringConstant:
		return n.Value, nil
	case *psast.ExpandableString:
		return in.evalExpandable(n, sc)
	case *psast.VariableExpression:
		return in.lookupVariable(n.Name, sc)
	case *psast.BinaryExpression:
		return in.evalBinaryExpr(n, sc)
	case *psast.UnaryExpression:
		return in.evalUnary(n, sc)
	case *psast.ConvertExpression:
		v, err := in.evalExpr(n.Operand, sc)
		if err != nil {
			return nil, err
		}
		return in.castValue(n.TypeName, v)
	case *psast.TypeExpression:
		return TypeValue{Name: n.TypeName}, nil
	case *psast.ArrayLiteral:
		out := make([]any, 0, len(n.Elements))
		for _, el := range n.Elements {
			v, err := in.evalExpr(el, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case *psast.ArrayExpression:
		vals, err := in.appendStatements(nil, n.Statements, sc)
		if err != nil {
			return nil, err
		}
		if vals == nil {
			vals = []any{}
		}
		return vals, nil
	case *psast.SubExpression:
		vals, err := in.appendStatements(nil, n.Statements, sc)
		if err != nil {
			return nil, err
		}
		return Unwrap(vals), nil
	case *psast.ParenExpression:
		switch inner := n.Pipeline.(type) {
		case *psast.Assignment:
			return in.evalAssignment(inner, sc)
		case *psast.Pipeline:
			// A single parenthesized expression keeps its value intact
			// (pipeline enumeration would collapse wrappers like the
			// (,$bytes) single-argument idiom).
			if len(inner.Elements) == 1 {
				if ce, ok := inner.Elements[0].(*psast.CommandExpression); ok {
					return in.evalExpr(ce.Expression, sc)
				}
			}
			vals, err := in.evalStatement(n.Pipeline, sc)
			if err != nil {
				return nil, err
			}
			return Unwrap(vals), nil
		default:
			vals, err := in.evalStatement(n.Pipeline, sc)
			if err != nil {
				return nil, err
			}
			return Unwrap(vals), nil
		}
	case *psast.ScriptBlockExpression:
		return in.scriptBlockValue(n), nil
	case *psast.MemberExpression:
		return in.evalMemberAccess(n, sc)
	case *psast.InvokeMemberExpression:
		return in.evalInvokeMember(n, sc)
	case *psast.IndexExpression:
		return in.evalIndex(n, sc)
	case *psast.Hashtable:
		h := NewHashtable()
		for _, e := range n.Entries {
			key, err := in.evalExpr(e.Key, sc)
			if err != nil {
				return nil, err
			}
			vals, err := in.evalStatement(e.Value, sc)
			if err != nil {
				return nil, err
			}
			h.Set(ToString(key), Unwrap(vals))
		}
		return h, nil
	case *psast.Pipeline:
		vals, err := in.evalPipeline(n, sc)
		if err != nil {
			return nil, err
		}
		return Unwrap(vals), nil
	case *psast.CommandExpression:
		return in.evalExpr(n.Expression, sc)
	case *psast.Evaluated:
		return in.evaluatedExpr(n, sc)
	}
	return nil, fmt.Errorf("%w: expression %s", ErrUnsupported, node.Kind())
}

func (in *Interp) scriptBlockValue(n *psast.ScriptBlockExpression) *ScriptBlockValue {
	return &ScriptBlockValue{Text: n.Source, Body: n.Body}
}

func (in *Interp) evalExpandable(n *psast.ExpandableString, sc *scope) (any, error) {
	var sb strings.Builder
	for _, part := range n.Parts {
		switch p := part.(type) {
		case *psast.StringConstant:
			sb.WriteString(p.Value)
		case *psast.VariableExpression:
			v, err := in.lookupVariable(p.Name, sc)
			if err != nil {
				return nil, err
			}
			sb.WriteString(ToString(v))
		case *psast.SubExpression:
			vals, err := in.appendStatements(nil, p.Statements, sc)
			if err != nil {
				return nil, err
			}
			sb.WriteString(ToString(Unwrap(vals)))
		default:
			return nil, fmt.Errorf("%w: expandable part %s", ErrUnsupported, part.Kind())
		}
		if sb.Len() > in.opts.MaxStringLen {
			return nil, ErrBudget
		}
	}
	if err := in.charge(sb.Len()); err != nil {
		return nil, err
	}
	return sb.String(), nil
}

func (in *Interp) lookupVariable(name string, sc *scope) (any, error) {
	n := foldName(name)
	switch n {
	case "true":
		return true, nil
	case "false":
		return false, nil
	case "null":
		return nil, nil
	}
	if strings.HasPrefix(n, "env:") {
		// Environment state lives outside the preloaded-variable
		// fingerprint, so any read of it disqualifies the run from the
		// evaluation cache.
		in.markImpure("env read: " + n)
		key := strings.TrimPrefix(n, "env:")
		if v, ok := in.env[key]; ok {
			return v, nil
		}
		if in.opts.StrictVars {
			return nil, &UnknownVariableError{Name: name}
		}
		return "", nil
	}
	n = stripScope(n)
	if v, ok := sc.get(n); ok {
		in.noteVarRead(n)
		return v, nil
	}
	if v, ok := in.automaticVariable(n); ok {
		return v, nil
	}
	if in.opts.StrictVars {
		return nil, &UnknownVariableError{Name: name}
	}
	// A lenient read of an undefined variable depends on the *absence*
	// of context, which the read-set fingerprint cannot express.
	in.markImpure("undefined variable read: $" + n)
	return nil, nil
}

func (in *Interp) evalBinaryExpr(n *psast.BinaryExpression, sc *scope) (any, error) {
	switch n.Operator {
	case "-and":
		l, err := in.evalExpr(n.Left, sc)
		if err != nil {
			return nil, err
		}
		if !ToBool(l) {
			return false, nil
		}
		r, err := in.evalExpr(n.Right, sc)
		if err != nil {
			return nil, err
		}
		return ToBool(r), nil
	case "-or":
		l, err := in.evalExpr(n.Left, sc)
		if err != nil {
			return nil, err
		}
		if ToBool(l) {
			return true, nil
		}
		r, err := in.evalExpr(n.Right, sc)
		if err != nil {
			return nil, err
		}
		return ToBool(r), nil
	}
	l, err := in.evalExpr(n.Left, sc)
	if err != nil {
		return nil, err
	}
	r, err := in.evalExpr(n.Right, sc)
	if err != nil {
		return nil, err
	}
	v, err := in.evalBinaryOp(n.Operator, l, r)
	if err != nil {
		return nil, err
	}
	// -match populates $matches like PowerShell.
	if op := strings.TrimPrefix(strings.TrimPrefix(strings.TrimPrefix(n.Operator, "-"), "i"), "c"); op == "match" && in.lastMatches != nil {
		sc.set("matches", in.lastMatches)
	}
	return v, nil
}

func (in *Interp) evalUnary(n *psast.UnaryExpression, sc *scope) (any, error) {
	if n.Operator == "++" || n.Operator == "--" {
		v, err := in.evalExpr(n.Operand, sc)
		if err != nil {
			return nil, err
		}
		num, err := ToNumber(v)
		if err != nil {
			return nil, err
		}
		delta := int64(1)
		if n.Operator == "--" {
			delta = -1
		}
		var updated any
		switch x := num.(type) {
		case int64:
			updated = x + delta
		case float64:
			updated = x + float64(delta)
		}
		if err := in.assignTo(n.Operand, updated, sc); err != nil {
			return nil, err
		}
		return nil, nil
	}
	v, err := in.evalExpr(n.Operand, sc)
	if err != nil {
		return nil, err
	}
	switch n.Operator {
	case "!", "-not":
		return !ToBool(v), nil
	case "-":
		num, err := ToNumber(v)
		if err != nil {
			return nil, err
		}
		switch x := num.(type) {
		case int64:
			return -x, nil
		case float64:
			return -x, nil
		}
	case "+":
		return ToNumber(v)
	case "-bnot":
		i, err := ToInt(v)
		if err != nil {
			return nil, err
		}
		return ^i, nil
	case "-join":
		parts := ToArray(v)
		var sb strings.Builder
		for _, p := range parts {
			sb.WriteString(ToString(p))
			if sb.Len() > in.opts.MaxStringLen {
				return nil, ErrBudget
			}
		}
		if err := in.charge(sb.Len()); err != nil {
			return nil, err
		}
		return sb.String(), nil
	case "-split":
		return splitWhitespace(ToString(v)), nil
	}
	return nil, fmt.Errorf("%w: unary %q", ErrUnsupported, n.Operator)
}

func splitWhitespace(s string) []any {
	fields := strings.Fields(s)
	out := make([]any, len(fields))
	for i, f := range fields {
		out[i] = f
	}
	return out
}

func (in *Interp) evalIndex(n *psast.IndexExpression, sc *scope) (any, error) {
	target, err := in.evalExpr(n.Target, sc)
	if err != nil {
		return nil, err
	}
	index, err := in.evalExpr(n.Index, sc)
	if err != nil {
		return nil, err
	}
	return indexValue(target, index)
}

// indexValue implements target[index] for strings, arrays, bytes and
// hashtables, with negative indices and index arrays.
func indexValue(target, index any) (any, error) {
	if h, ok := target.(*Hashtable); ok {
		v, _ := h.Get(ToString(index))
		return v, nil
	}
	if idxArr, ok := index.([]any); ok {
		// Index arrays over strings are the dominant character-
		// reconstruction idiom ($s[4,30,12] -join ''). Decode the
		// string to runes ONCE for the whole list: re-deriving it per
		// element made multi-index O(len(s) * len(idx)) and was the
		// single hottest call in corpus profiles.
		if s, isStr := target.(string); isStr {
			target = []rune(s)
		}
		out := make([]any, 0, len(idxArr))
		for _, ix := range idxArr {
			v, err := indexValue(target, ix)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	i, err := ToInt(index)
	if err != nil {
		return nil, err
	}
	at := func(length int) (int, bool) {
		n := int(i)
		if n < 0 {
			n += length
		}
		return n, n >= 0 && n < length
	}
	switch t := target.(type) {
	case string:
		runes := []rune(t)
		if n, ok := at(len(runes)); ok {
			return Char(runes[n]), nil
		}
		return nil, nil
	case []rune:
		// Internal fast path: a string target pre-decoded once by the
		// index-array branch above. Never a user-visible value type.
		if n, ok := at(len(t)); ok {
			return Char(t[n]), nil
		}
		return nil, nil
	case []any:
		if n, ok := at(len(t)); ok {
			return t[n], nil
		}
		return nil, nil
	case Bytes:
		if n, ok := at(len(t)); ok {
			return int64(t[n]), nil
		}
		return nil, nil
	case Char:
		if i == 0 {
			return t, nil
		}
		return nil, nil
	case nil:
		return nil, nil
	}
	return nil, fmt.Errorf("%w: indexing %T", ErrUnsupported, target)
}

// memberName evaluates the member-name node of a member access.
func (in *Interp) memberName(member psast.Node, sc *scope) (string, error) {
	switch m := member.(type) {
	case *psast.StringConstant:
		return m.Value, nil
	default:
		v, err := in.evalExpr(member, sc)
		if err != nil {
			return "", err
		}
		return ToString(v), nil
	}
}

func (in *Interp) evalMemberAccess(n *psast.MemberExpression, sc *scope) (any, error) {
	name, err := in.memberName(n.Member, sc)
	if err != nil {
		return nil, err
	}
	if n.Static {
		typeName := ""
		if te, ok := n.Target.(*psast.TypeExpression); ok {
			typeName = te.TypeName
		} else {
			v, err := in.evalExpr(n.Target, sc)
			if err != nil {
				return nil, err
			}
			tv, ok := v.(TypeValue)
			if !ok {
				return nil, fmt.Errorf("%w: :: on %T", ErrUnsupported, v)
			}
			typeName = tv.Name
		}
		return in.staticProperty(typeName, name)
	}
	target, err := in.evalExpr(n.Target, sc)
	if err != nil {
		return nil, err
	}
	return in.getProperty(target, name)
}

func (in *Interp) evalInvokeMember(n *psast.InvokeMemberExpression, sc *scope) (any, error) {
	name, err := in.memberName(n.Member, sc)
	if err != nil {
		return nil, err
	}
	args := make([]any, 0, len(n.Args))
	for _, a := range n.Args {
		v, err := in.evalExpr(a, sc)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	if n.Static {
		typeName := ""
		if te, ok := n.Target.(*psast.TypeExpression); ok {
			typeName = te.TypeName
		} else {
			v, err := in.evalExpr(n.Target, sc)
			if err != nil {
				return nil, err
			}
			tv, ok := v.(TypeValue)
			if !ok {
				return nil, fmt.Errorf("%w: :: on %T", ErrUnsupported, v)
			}
			typeName = tv.Name
		}
		return in.staticMethod(typeName, name, args)
	}
	target, err := in.evalExpr(n.Target, sc)
	if err != nil {
		return nil, err
	}
	return in.invokeMethod(target, name, args, sc)
}
