// Package psast defines the abstract syntax tree for PowerShell scripts,
// mirroring the node taxonomy of System.Management.Automation.Language.
//
// Every node records its exact source extent (byte offsets into the
// original script), which is what lets the deobfuscator replace
// recovered pieces strictly in place (paper §III-B5).
package psast

import "fmt"

// Extent is a half-open byte range [Start, End) into the source text.
type Extent struct {
	Start int
	End   int
}

// Text returns the source slice covered by the extent.
func (e Extent) Text(src string) string {
	if e.Start < 0 || e.End > len(src) || e.Start > e.End {
		return ""
	}
	return src[e.Start:e.End]
}

// Len returns the extent length in bytes.
func (e Extent) Len() int { return e.End - e.Start }

// Contains reports whether other lies fully within e.
func (e Extent) Contains(other Extent) bool {
	return e.Start <= other.Start && other.End <= e.End
}

func (e Extent) String() string { return fmt.Sprintf("[%d,%d)", e.Start, e.End) }

// Kind identifies the node type, mirroring the *Ast class names used by
// the paper (e.g. KindBinaryExpression ~ BinaryExpressionAst).
type Kind int

// Node kinds.
const (
	KindInvalid Kind = iota
	KindScriptBlock
	KindParamBlock
	KindParameter
	KindNamedBlock
	KindStatementBlock
	KindPipeline
	KindCommand
	KindCommandParameter
	KindCommandExpression
	KindAssignment
	KindIf
	KindWhile
	KindDoLoop
	KindFor
	KindForEach
	KindSwitch
	KindFunctionDefinition
	KindTry
	KindCatchClause
	KindFlowStatement
	KindBinaryExpression
	KindUnaryExpression
	KindConvertExpression
	KindTypeExpression
	KindConstantExpression
	KindStringConstant
	KindExpandableString
	KindVariableExpression
	KindMemberExpression
	KindInvokeMemberExpression
	KindIndexExpression
	KindArrayLiteral
	KindArrayExpression
	KindSubExpression
	KindParenExpression
	KindScriptBlockExpression
	KindHashtable
	// KindEvaluated marks a subtree an earlier evaluation already
	// computed; it never comes from the parser.
	KindEvaluated
)

var kindNames = map[Kind]string{
	KindInvalid:                "InvalidAst",
	KindScriptBlock:            "ScriptBlockAst",
	KindParamBlock:             "ParamBlockAst",
	KindParameter:              "ParameterAst",
	KindNamedBlock:             "NamedBlockAst",
	KindStatementBlock:         "StatementBlockAst",
	KindPipeline:               "PipelineAst",
	KindCommand:                "CommandAst",
	KindCommandParameter:       "CommandParameterAst",
	KindCommandExpression:      "CommandExpressionAst",
	KindAssignment:             "AssignmentStatementAst",
	KindIf:                     "IfStatementAst",
	KindWhile:                  "WhileStatementAst",
	KindDoLoop:                 "DoLoopStatementAst",
	KindFor:                    "ForStatementAst",
	KindForEach:                "ForEachStatementAst",
	KindSwitch:                 "SwitchStatementAst",
	KindFunctionDefinition:     "FunctionDefinitionAst",
	KindTry:                    "TryStatementAst",
	KindCatchClause:            "CatchClauseAst",
	KindFlowStatement:          "FlowStatementAst",
	KindBinaryExpression:       "BinaryExpressionAst",
	KindUnaryExpression:        "UnaryExpressionAst",
	KindConvertExpression:      "ConvertExpressionAst",
	KindTypeExpression:         "TypeExpressionAst",
	KindConstantExpression:     "ConstantExpressionAst",
	KindStringConstant:         "StringConstantExpressionAst",
	KindExpandableString:       "ExpandableStringExpressionAst",
	KindVariableExpression:     "VariableExpressionAst",
	KindMemberExpression:       "MemberExpressionAst",
	KindInvokeMemberExpression: "InvokeMemberExpressionAst",
	KindIndexExpression:        "IndexExpressionAst",
	KindArrayLiteral:           "ArrayLiteralAst",
	KindArrayExpression:        "ArrayExpressionAst",
	KindSubExpression:          "SubExpressionAst",
	KindParenExpression:        "ParenExpressionAst",
	KindScriptBlockExpression:  "ScriptBlockExpressionAst",
	KindHashtable:              "HashtableAst",
	KindEvaluated:              "Evaluated",
}

// String returns the System.Management.Automation.Language-style name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is implemented by all AST nodes.
type Node interface {
	// Extent returns the node's source span.
	Extent() Extent
	// Kind returns the node's type tag.
	Kind() Kind
	// Children returns the node's direct children in source order.
	Children() []Node
}

// ScriptBlock is a whole script or { } block body.
type ScriptBlock struct {
	Ext    Extent
	Params *ParamBlock
	Body   *NamedBlock
}

// ParamBlock is a param(...) declaration.
type ParamBlock struct {
	Ext        Extent
	Parameters []*Parameter
}

// Parameter is one parameter declaration with an optional default.
type Parameter struct {
	Ext     Extent
	Name    string
	Default Node
}

// NamedBlock is the (implicit) end block holding a script block's
// statements.
type NamedBlock struct {
	Ext        Extent
	Statements []Node
}

// StatementBlock is a brace-delimited { statements } block.
type StatementBlock struct {
	Ext        Extent
	Statements []Node
}

// Pipeline is a sequence of pipeline elements separated by |.
type Pipeline struct {
	Ext      Extent
	Elements []Node
	// Background reports a trailing & (job start).
	Background bool
}

// Command is a command invocation with arguments.
type Command struct {
	Ext Extent
	// InvocationOperator is "", "&" or ".".
	InvocationOperator string
	// Name is the command name: a bare-word StringConstant, a quoted
	// string, a variable or a parenthesized expression.
	Name Node
	// Args holds CommandParameter and expression arguments in order.
	Args []Node
	// Redirections like > file or 2>&1, kept as raw text.
	Redirections []string
}

// CommandParameter is a -Name or -Name:arg parameter.
type CommandParameter struct {
	Ext  Extent
	Name string
	// Argument is non-nil for the -Name:value form.
	Argument Node
}

// CommandExpression is an expression used as a pipeline element.
type CommandExpression struct {
	Ext        Extent
	Expression Node
}

// Assignment is an assignment statement ($v = <statement>).
type Assignment struct {
	Ext      Extent
	Left     Node
	Operator string
	Right    Node
}

// IfClause is one condition/body pair of an if statement.
type IfClause struct {
	Cond Node
	Body *StatementBlock
}

// If is an if/elseif/else statement.
type If struct {
	Ext     Extent
	Clauses []IfClause
	Else    *StatementBlock
}

// While is a while or until loop.
type While struct {
	Ext  Extent
	Cond Node
	Body *StatementBlock
}

// DoLoop is a do {} while/until () loop.
type DoLoop struct {
	Ext   Extent
	Body  *StatementBlock
	Cond  Node
	Until bool
}

// For is a for (init; cond; iter) loop.
type For struct {
	Ext              Extent
	Init, Cond, Iter Node
	Body             *StatementBlock
}

// ForEach is a foreach ($v in expr) loop.
type ForEach struct {
	Ext        Extent
	Variable   *VariableExpression
	Collection Node
	Body       *StatementBlock
}

// SwitchCase is one clause of a switch statement.
type SwitchCase struct {
	Pattern Node
	Body    *StatementBlock
}

// Switch is a switch statement.
type Switch struct {
	Ext     Extent
	Cond    Node
	Cases   []SwitchCase
	Default *StatementBlock
}

// FunctionDefinition is a function or filter definition.
type FunctionDefinition struct {
	Ext      Extent
	Name     string
	IsFilter bool
	Params   []*Parameter
	Body     *ScriptBlock
}

// CatchClause is one catch of a try statement.
type CatchClause struct {
	Ext   Extent
	Types []string
	Body  *StatementBlock
}

// Try is a try/catch/finally statement.
type Try struct {
	Ext     Extent
	Body    *StatementBlock
	Catches []*CatchClause
	Finally *StatementBlock
}

// FlowStatement is return, throw, break, continue or exit with an
// optional value.
type FlowStatement struct {
	Ext     Extent
	Keyword string
	Value   Node
	// Label is the loop label a break or continue names (`break outer`),
	// without the colon; empty when it names none.
	Label string
}

// BinaryExpression is left <op> right with a PowerShell operator
// (lower-cased, e.g. "+", "-f", "-bxor").
type BinaryExpression struct {
	Ext         Extent
	Operator    string
	Left, Right Node
}

// UnaryExpression is a prefix or postfix unary operation.
type UnaryExpression struct {
	Ext      Extent
	Operator string
	Operand  Node
	Postfix  bool
}

// ConvertExpression is a [type]expr cast.
type ConvertExpression struct {
	Ext      Extent
	TypeName string
	Operand  Node
}

// TypeExpression is a bare [type] literal.
type TypeExpression struct {
	Ext      Extent
	TypeName string
}

// ConstantExpression is a numeric or boolean constant.
type ConstantExpression struct {
	Ext   Extent
	Value any
	Text  string
}

// StringConstant is a literal string: quoted without interpolation, a
// here-string, or a bare word.
type StringConstant struct {
	Ext   Extent
	Value string
	// Bare reports a bare word (command names and arguments).
	Bare bool
	// SingleQuoted reports 'literal' quoting.
	SingleQuoted bool
	// HereString reports @' '@ or @" "@ quoting.
	HereString bool
}

// ExpandableString is a double-quoted string with interpolation.
type ExpandableString struct {
	Ext Extent
	// Raw is the string body as written (escapes unresolved).
	Raw string
	// Parts alternates literal fragments (StringConstant), variables and
	// subexpressions in order.
	Parts []Node
}

// VariableExpression is a $name reference.
type VariableExpression struct {
	Ext  Extent
	Name string
	// Splatted reports @name splatting.
	Splatted bool
}

// MemberExpression is target.member or [type]::member access.
type MemberExpression struct {
	Ext    Extent
	Target Node
	Member Node
	Static bool
}

// InvokeMemberExpression is a method call target.m(args) or
// [type]::m(args).
type InvokeMemberExpression struct {
	Ext    Extent
	Target Node
	Member Node
	Static bool
	Args   []Node
}

// IndexExpression is target[index].
type IndexExpression struct {
	Ext    Extent
	Target Node
	Index  Node
}

// ArrayLiteral is a comma-separated list (1,2,3).
type ArrayLiteral struct {
	Ext      Extent
	Elements []Node
}

// ArrayExpression is @( statements ).
type ArrayExpression struct {
	Ext        Extent
	Statements []Node
}

// SubExpression is $( statements ).
type SubExpression struct {
	Ext        Extent
	Statements []Node
}

// ParenExpression is ( pipeline ).
type ParenExpression struct {
	Ext      Extent
	Pipeline Node
}

// ScriptBlockExpression is a { ... } literal.
type ScriptBlockExpression struct {
	Ext  Extent
	Body *ScriptBlock
	// Source is the block body text without the braces, matching
	// ScriptBlock.ToString() in PowerShell.
	Source string
}

// HashEntry is one key/value pair of a hashtable literal.
type HashEntry struct {
	Key   Node
	Value Node
}

// Hashtable is an @{ k = v; ... } literal.
type Hashtable struct {
	Ext     Extent
	Entries []HashEntry
}

// Evaluated stands for Node in a tree built for the interpreter. Record
// is opaque here: it belongs to the interpreter, which either replays
// what an earlier evaluation of Node computed and charged, or, when
// Record is nil, evaluates Node and records that. The parser never
// produces one.
type Evaluated struct {
	Ext    Extent
	Node   Node
	Record any
}
