// Package psinterp evaluates PowerShell AST fragments. It is the Go
// replacement for ScriptBlock.Invoke() and the .NET runtime surface that
// obfuscated scripts rely on for their recovery code: string and array
// operators, format/join/split/replace/bxor, base64 and code-page
// conversion, compression streams, SecureString, and the cmdlets that
// commonly appear in recovery pipelines (ForEach-Object and friends).
//
// The interpreter is deliberately bounded: step budgets, recursion
// limits and output caps make it safe to execute untrusted recovery
// code during deobfuscation.
package psinterp

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// Char is a .NET System.Char value ([char] in PowerShell).
type Char rune

// Bytes is a .NET byte[] value.
type Bytes []byte

// ScriptBlockValue is a { ... } literal value.
type ScriptBlockValue struct {
	// Text is the source of the block including braces.
	Text string
	// Body is the parsed block.
	Body *psast.ScriptBlock
}

func (s *ScriptBlockValue) String() string { return s.Text }

// Hashtable is an ordered PowerShell hashtable.
type Hashtable struct {
	keys   []string
	values map[string]any
}

// NewHashtable returns an empty hashtable.
func NewHashtable() *Hashtable {
	return &Hashtable{values: make(map[string]any)}
}

// Set inserts or replaces a key (case-insensitive).
func (h *Hashtable) Set(key string, v any) {
	k := strings.ToLower(key)
	if _, ok := h.values[k]; !ok {
		h.keys = append(h.keys, key)
	}
	h.values[k] = v
}

// Get returns the value for key.
func (h *Hashtable) Get(key string) (any, bool) {
	v, ok := h.values[strings.ToLower(key)]
	return v, ok
}

// Len returns the number of entries.
func (h *Hashtable) Len() int { return len(h.keys) }

// Keys returns the keys in insertion order.
func (h *Hashtable) Keys() []string { return append([]string(nil), h.keys...) }

// Object is a simulated .NET object instance (WebClient, MemoryStream,
// encodings, ...). Behaviour is dispatched on TypeName in methods.go.
type Object struct {
	TypeName string
	// Props holds simple settable properties.
	Props map[string]any
	// Data carries type-specific payloads (stream bytes, etc).
	Data any
}

// NewObject returns an Object of the given type.
func NewObject(typeName string) *Object {
	return &Object{TypeName: typeName, Props: make(map[string]any)}
}

func (o *Object) String() string {
	// Mirror the .NET ToString overrides PowerShell relies on: command
	// infos stringify to their names, path infos to their paths, regex
	// matches to their values.
	switch o.TypeName {
	case "System.Management.Automation.CmdletInfo",
		"System.Management.Automation.AliasInfo",
		"System.Management.Automation.FunctionInfo":
		if v, ok := o.Props["name"]; ok {
			return ToString(v)
		}
	case "System.Management.Automation.PathInfo":
		if v, ok := o.Props["path"]; ok {
			return ToString(v)
		}
	case "System.Text.RegularExpressions.Match":
		if v, ok := o.Props["value"]; ok {
			return ToString(v)
		}
	}
	return o.TypeName
}

// SecureString is the simulated System.Security.SecureString.
type SecureString struct {
	Plain string
}

func (s *SecureString) String() string { return "System.Security.SecureString" }

// ToString converts a value to its PowerShell string form.
func ToString(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case bool:
		if x {
			return "True"
		}
		return "False"
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	case float64:
		return formatFloat(x)
	case Char:
		return string(rune(x))
	case []any:
		parts := make([]string, len(x))
		for i, e := range x {
			parts[i] = ToString(e)
		}
		return strings.Join(parts, " ")
	case Bytes:
		parts := make([]string, len(x))
		for i, b := range x {
			parts[i] = strconv.Itoa(int(b))
		}
		return strings.Join(parts, " ")
	case *ScriptBlockValue:
		return x.Text
	case *Hashtable:
		return "System.Collections.Hashtable"
	case *Object:
		return x.String()
	case *SecureString:
		return x.String()
	default:
		return fmt.Sprint(v)
	}
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// IsStringLike reports whether v renders naturally as a string or number
// (the paper's criterion for a usable recovery result).
func IsStringLike(v any) bool {
	switch v.(type) {
	case string, int64, int, float64, Char, bool:
		return true
	}
	return false
}

// ToBool converts a value using PowerShell truthiness.
func ToBool(v any) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case string:
		return len(x) > 0
	case int64:
		return x != 0
	case int:
		return x != 0
	case float64:
		return x != 0
	case Char:
		return x != 0
	case []any:
		if len(x) == 1 {
			return ToBool(x[0])
		}
		return len(x) > 0
	case Bytes:
		return len(x) > 0
	case *Hashtable:
		return true
	default:
		return v != nil
	}
}

// ToNumber converts a value to int64 or float64 following PowerShell's
// implicit conversions (strings parse as numeric literals, chars become
// their code points).
func ToNumber(v any) (any, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	case float64:
		return x, nil
	case Char:
		return int64(x), nil
	case bool:
		if x {
			return int64(1), nil
		}
		return int64(0), nil
	case nil:
		return int64(0), nil
	case string:
		n, err := psparser.ParseNumber(strings.TrimSpace(x))
		if err != nil {
			return nil, fmt.Errorf("cannot convert %q to a number", x)
		}
		return n, nil
	case []any:
		if len(x) == 1 {
			return ToNumber(x[0])
		}
	}
	return nil, fmt.Errorf("cannot convert %T to a number", v)
}

// ToInt converts a value to int64.
func ToInt(v any) (int64, error) {
	// An int64 needs no conversion; passing it through ToNumber would
	// box it again.
	if x, ok := v.(int64); ok {
		return x, nil
	}
	n, err := ToNumber(v)
	if err != nil {
		return 0, err
	}
	switch x := n.(type) {
	case int64:
		return x, nil
	case float64:
		return int64(math.RoundToEven(x)), nil
	}
	return 0, fmt.Errorf("cannot convert %T to an integer", v)
}

// ToArray converts a value to a slice. Scalars become one-element
// slices; nil becomes empty.
func ToArray(v any) []any {
	switch x := v.(type) {
	case nil:
		return nil
	case []any:
		return x
	case Bytes:
		out := make([]any, len(x))
		for i, b := range x {
			out[i] = int64(b)
		}
		return out
	case string:
		return []any{x}
	default:
		return []any{v}
	}
}

// Unwrap collapses pipeline output to PowerShell's convention: empty
// output is nil, one value is the value itself, more stay a slice.
func Unwrap(values []any) any {
	switch len(values) {
	case 0:
		return nil
	case 1:
		return values[0]
	default:
		return values
	}
}

// DeepEqualFold compares two values with PowerShell -eq semantics
// (case-insensitive strings, numeric widening).
func DeepEqualFold(a, b any) bool {
	if sa, ok := a.(string); ok {
		return strings.EqualFold(sa, ToString(b))
	}
	if ca, ok := a.(Char); ok {
		bs := ToString(b)
		return strings.EqualFold(string(rune(ca)), bs)
	}
	na, errA := ToNumber(a)
	nb, errB := ToNumber(b)
	if errA == nil && errB == nil {
		return numericCompare(na, nb) == 0
	}
	return ToString(a) == ToString(b)
}

// numericCompare compares two numbers returning -1, 0 or 1.
func numericCompare(a, b any) int {
	af, aIsFloat := a.(float64)
	bf, bIsFloat := b.(float64)
	if aIsFloat || bIsFloat {
		if !aIsFloat {
			af = float64(a.(int64))
		}
		if !bIsFloat {
			bf = float64(b.(int64))
		}
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	ai := a.(int64)
	bi := b.(int64)
	switch {
	case ai < bi:
		return -1
	case ai > bi:
		return 1
	default:
		return 0
	}
}

// sortValues sorts a slice with PowerShell Sort-Object semantics.
func sortValues(vals []any, descending bool) []any {
	out := append([]any(nil), vals...)
	sort.SliceStable(out, func(i, j int) bool {
		less := compareValues(out[i], out[j]) < 0
		if descending {
			return !less
		}
		return less
	})
	return out
}

// compareValues orders two values: numerically when both are numbers,
// otherwise case-insensitively as strings.
func compareValues(a, b any) int {
	na, errA := ToNumber(a)
	nb, errB := ToNumber(b)
	if errA == nil && errB == nil {
		return numericCompare(na, nb)
	}
	sa := strings.ToLower(ToString(a))
	sb := strings.ToLower(ToString(b))
	switch {
	case sa < sb:
		return -1
	case sa > sb:
		return 1
	default:
		return 0
	}
}
