package psparser

import (
	"strings"
	"testing"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
)

func TestParseHereStringExpandable(t *testing.T) {
	src := "@\"\nvalue $name here\n\"@"
	expr := firstExpr(t, src)
	es, ok := expr.(*psast.ExpandableString)
	if !ok {
		t.Fatalf("expr = %T", expr)
	}
	hasVar := false
	for _, p := range es.Parts {
		if _, ok := p.(*psast.VariableExpression); ok {
			hasVar = true
		}
	}
	if !hasVar {
		t.Errorf("here-string interpolation missing: %#v", es.Parts)
	}
}

func TestParseLoopLabelAndBreak(t *testing.T) {
	root, err := Parse(":outer foreach ($i in 1..3) { break outer }")
	if err != nil {
		t.Fatal(err)
	}
	fe, ok := root.Body.Statements[0].(*psast.ForEach)
	if !ok {
		t.Fatalf("statement = %T", root.Body.Statements[0])
	}
	flow, ok := fe.Body.Statements[0].(*psast.FlowStatement)
	if !ok || flow.Keyword != "break" || flow.Label != "outer" {
		t.Fatalf("inner = %#v", fe.Body.Statements[0])
	}
}

func TestParseTrap(t *testing.T) {
	root, err := Parse("trap { 'caught' }\nwrite-host after")
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Body.Statements) != 2 {
		t.Errorf("statements = %d", len(root.Body.Statements))
	}
}

func TestParseSwitchFlags(t *testing.T) {
	st := firstStatement(t, "switch -regex ($x) { 'a+' { 1 } }")
	if st.Kind() != psast.KindSwitch {
		t.Fatalf("kind = %v", st.Kind())
	}
}

func TestParseRedirection(t *testing.T) {
	pipe := firstStatement(t, "cmd arg > out.txt").(*psast.Pipeline)
	c := pipe.Elements[0].(*psast.Command)
	if len(c.Redirections) != 1 || !strings.Contains(c.Redirections[0], "out.txt") {
		t.Errorf("redirections = %v", c.Redirections)
	}
}

func TestParseNestedSubexprInString(t *testing.T) {
	src := `"outer $(if (1) { 'in' } else { 'out' }) done"`
	expr := firstExpr(t, src)
	es, ok := expr.(*psast.ExpandableString)
	if !ok {
		t.Fatalf("expr = %T", expr)
	}
	found := false
	for _, p := range es.Parts {
		if sub, ok := p.(*psast.SubExpression); ok && len(sub.Statements) == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("nested statement missing: %#v", es.Parts)
	}
}

func TestParseMethodCallSpacing(t *testing.T) {
	// Attached parens invoke; detached member access stays a property.
	expr := firstExpr(t, "'x'.ToUpper()")
	if _, ok := expr.(*psast.InvokeMemberExpression); !ok {
		t.Errorf("attached call = %T", expr)
	}
	expr = firstExpr(t, "'x'.Length")
	if _, ok := expr.(*psast.MemberExpression); !ok {
		t.Errorf("property access = %T", expr)
	}
}

func TestParseDynamicMemberName(t *testing.T) {
	expr := firstExpr(t, "$obj.$prop")
	me, ok := expr.(*psast.MemberExpression)
	if !ok {
		t.Fatalf("expr = %T", expr)
	}
	if _, ok := me.Member.(*psast.VariableExpression); !ok {
		t.Errorf("member = %T", me.Member)
	}
}

func TestParseUnaryComma(t *testing.T) {
	expr := firstExpr(t, ",(1,2)")
	arr, ok := expr.(*psast.ArrayLiteral)
	if !ok || len(arr.Elements) != 1 {
		t.Fatalf("expr = %#v", expr)
	}
}

func TestParseCommandArgArrays(t *testing.T) {
	pipe := firstStatement(t, "cmd a,b,c -p 1").(*psast.Pipeline)
	c := pipe.Elements[0].(*psast.Command)
	if len(c.Args) != 3 { // array, -p, 1
		t.Fatalf("args = %d (%#v)", len(c.Args), c.Args)
	}
	if _, ok := c.Args[0].(*psast.ArrayLiteral); !ok {
		t.Errorf("first arg = %T", c.Args[0])
	}
}

func TestParseSubParseOffsets(t *testing.T) {
	// Extents inside expandable-string subexpressions stay absolute.
	src := `$x = "pre $(1+2) post"`
	root, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	psast.Walk(root, func(n psast.Node) bool {
		if b, ok := n.(*psast.BinaryExpression); ok && b.Operator == "+" {
			if got := b.Ext.Text(src); got != "1+2" {
				t.Errorf("inner extent text = %q", got)
			}
		}
		return true
	}, nil)
}
