// Package pstoken implements a mode-aware tokenizer for the PowerShell
// scripting language, modeled on the token taxonomy of Microsoft's
// System.Management.Automation.PSParser (PSTokenType).
//
// The tokenizer is the substrate for the deobfuscator's "token parsing"
// phase (paper §III-A): it classifies every lexical unit with its exact
// source extent so obfuscation at the token level (ticking, random case,
// aliases, random whitespace) can be recovered and replaced in place.
package pstoken

import "fmt"

// Type classifies a token, mirroring PSTokenType.
type Type uint8

// Token types, mirroring System.Management.Automation.PSTokenType.
const (
	Unknown Type = iota
	// Command is a command name at the start of a pipeline element
	// (e.g. Write-Host, iex).
	Command
	// CommandArgument is a bare-word argument to a command.
	CommandArgument
	// CommandParameter is a -Name style parameter.
	CommandParameter
	// Comment is a line (#) or block (<# #>) comment.
	Comment
	// GroupStart is one of ( { [ @( $( @{.
	GroupStart
	// GroupEnd is one of ) } ].
	GroupEnd
	// Keyword is a language keyword (if, while, function, ...).
	Keyword
	// LineContinuation is a backtick at end of line.
	LineContinuation
	// LoopLabel is a :label before a loop keyword.
	LoopLabel
	// Member is a property or method name after . or ::.
	Member
	// NewLine is a line break acting as a statement separator.
	NewLine
	// Number is a numeric literal (integer, hex, real, with multipliers).
	Number
	// Operator is any operator, including dash operators such as -f.
	Operator
	// StatementSeparator is a semicolon.
	StatementSeparator
	// String is a quoted string or here-string literal.
	String
	// TypeLiteral is a [TypeName] literal.
	TypeLiteral
	// Variable is a $name, ${name} or $scope:name reference.
	Variable
)

var typeNames = map[Type]string{
	Unknown:            "Unknown",
	Command:            "Command",
	CommandArgument:    "CommandArgument",
	CommandParameter:   "CommandParameter",
	Comment:            "Comment",
	GroupStart:         "GroupStart",
	GroupEnd:           "GroupEnd",
	Keyword:            "Keyword",
	LineContinuation:   "LineContinuation",
	LoopLabel:          "LoopLabel",
	Member:             "Member",
	NewLine:            "NewLine",
	Number:             "Number",
	Operator:           "Operator",
	StatementSeparator: "StatementSeparator",
	String:             "String",
	TypeLiteral:        "Type",
	Variable:           "Variable",
}

// String returns the PSTokenType-style name of the token type.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", int(t))
}

// StringKind describes the flavor of a String token.
type StringKind uint8

// String token flavors.
const (
	// BareWord is an unquoted word used as an argument or value.
	BareWord StringKind = iota
	// SingleQuoted is a 'literal' string.
	SingleQuoted
	// DoubleQuoted is an "expandable" string.
	DoubleQuoted
	// SingleHereString is a @'...'@ here-string.
	SingleHereString
	// DoubleHereString is a @"..."@ here-string.
	DoubleHereString
)

// Token is a single lexical unit with its exact source extent. It is
// 32 bytes: the raw text is not stored but sliced from the source on
// demand (Text), offsets are int32 (Tokenize rejects sources of 2 GiB
// or more) and the classifications are bytes. Token streams are the
// largest allocation of a deobfuscation run, and cached streams live
// as long as their text does.
type Token struct {
	// Content is the decoded content: escapes resolved for strings,
	// backticks stripped from bare words, brackets stripped from type
	// literals, $ stripped from variables.
	Content string
	// Start is the byte offset of the token in the source.
	Start int32
	// Length is the byte length of the raw token text.
	Length int32
	// Line is the 1-based line number of the token start.
	Line int32
	// Type is the PSTokenType-style classification.
	Type Type
	// Kind differentiates string flavors (only meaningful for String
	// and CommandArgument/Command tokens derived from bare words).
	Kind StringKind
	// HadTicks reports whether the raw text contained backtick escapes
	// that were stripped (ticking obfuscation for bare words).
	HadTicks bool
}

// End returns the byte offset one past the token.
func (t Token) End() int { return int(t.Start) + int(t.Length) }

// Text returns the raw source text of the token. src must be the text
// the token was lexed from.
func (t Token) Text(src string) string { return src[t.Start:t.End()] }

func (t Token) String() string {
	return fmt.Sprintf("%s(%q@%d)", t.Type, t.Content, t.Start)
}

// Error describes a tokenization failure at a source position.
type Error struct {
	Pos  int
	Line int
	Msg  string
	// Limit, when set, is the taxonomy sentinel of the resource limit
	// that stopped the lexer (limits.ErrParseDepth for group nesting,
	// limits.ErrInputBudget for a source too large for int32 offsets);
	// the error unwraps to it.
	Limit error
}

func (e *Error) Error() string {
	return fmt.Sprintf("line %d (offset %d): %s", e.Line, e.Pos, e.Msg)
}

// Unwrap exposes the taxonomy sentinel for limit failures.
func (e *Error) Unwrap() error { return e.Limit }
