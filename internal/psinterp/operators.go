package psinterp

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// evalBinaryOp implements all non-short-circuit binary operators.
func (in *Interp) evalBinaryOp(op string, l, r any) (any, error) {
	switch op {
	case "+":
		return in.addValues(l, r)
	case "-":
		return arith(l, r, func(a, b int64) int64 { return a - b }, func(a, b float64) float64 { return a - b })
	case "*":
		return in.mulValues(l, r)
	case "/":
		return divide(l, r)
	case "%":
		return arith(l, r, func(a, b int64) int64 {
			if b == 0 {
				return 0
			}
			return a % b
		}, math.Mod)
	case "-f":
		return in.formatOperator(ToString(l), ToArray(r))
	case "..":
		return in.rangeValues(l, r)
	case "-band":
		return bitwise(l, r, func(a, b int64) int64 { return a & b })
	case "-bor":
		return bitwise(l, r, func(a, b int64) int64 { return a | b })
	case "-bxor":
		return bitwise(l, r, func(a, b int64) int64 { return a ^ b })
	case "-shl":
		return bitwise(l, r, func(a, b int64) int64 { return a << uint(b&63) })
	case "-shr":
		return bitwise(l, r, func(a, b int64) int64 { return a >> uint(b&63) })
	case "-and":
		return ToBool(l) && ToBool(r), nil
	case "-or":
		return ToBool(l) || ToBool(r), nil
	case "-xor":
		return ToBool(l) != ToBool(r), nil
	case "-is", "-isnot":
		res := isOfType(l, ToString(r))
		if op == "-isnot" {
			res = !res
		}
		return res, nil
	case "-as":
		v, err := in.castValue(typeNameOf(r), l)
		if err != nil {
			return nil, nil //nolint:nilerr // -as yields $null on failure
		}
		return v, nil
	}
	base, caseSensitive := normalizeComparisonOp(op)
	switch base {
	case "eq", "ne":
		res := equalsOp(l, r, caseSensitive)
		if base == "ne" {
			res = !res
		}
		return res, nil
	case "gt", "ge", "lt", "le":
		c := compareOp(l, r, caseSensitive)
		switch base {
		case "gt":
			return c > 0, nil
		case "ge":
			return c >= 0, nil
		case "lt":
			return c < 0, nil
		default:
			return c <= 0, nil
		}
	case "like", "notlike":
		re, err := compileWildcard(ToString(r), caseSensitive)
		if err != nil {
			return nil, err
		}
		res := re.MatchString(ToString(l))
		if base == "notlike" {
			res = !res
		}
		return res, nil
	case "match", "notmatch":
		re, err := compileRegex(ToString(r), caseSensitive)
		if err != nil {
			return nil, err
		}
		m := re.FindStringSubmatch(ToString(l))
		if m != nil {
			h := NewHashtable()
			for i, g := range m {
				h.Set(strconv.Itoa(i), g)
			}
			for i, name := range re.SubexpNames() {
				if name != "" && i < len(m) {
					h.Set(name, m[i])
				}
			}
			in.lastMatches = h
		}
		res := m != nil
		if base == "notmatch" {
			res = !res
		}
		return res, nil
	case "replace":
		return in.replaceOperator(l, r, caseSensitive)
	case "split":
		return in.splitOperator(l, r, caseSensitive)
	case "join":
		sep := ToString(r)
		parts := ToArray(l)
		elems := make([]string, len(parts))
		for i, p := range parts {
			elems[i] = ToString(p)
		}
		s := strings.Join(elems, sep)
		if err := in.chargeString(len(s)); err != nil {
			return nil, err
		}
		return s, nil
	case "contains", "notcontains":
		res := false
		for _, item := range ToArray(l) {
			if equalsOp(item, r, caseSensitive) {
				res = true
				break
			}
		}
		if base == "notcontains" {
			res = !res
		}
		return res, nil
	case "in", "notin":
		res := false
		for _, item := range ToArray(r) {
			if equalsOp(l, item, caseSensitive) {
				res = true
				break
			}
		}
		if base == "notin" {
			res = !res
		}
		return res, nil
	}
	return nil, fmt.Errorf("%w: operator %q", ErrUnsupported, op)
}

// normalizeComparisonOp strips the dash and case-sensitivity prefix,
// returning the base operator and whether it is case-sensitive.
func normalizeComparisonOp(op string) (string, bool) {
	op = strings.TrimPrefix(op, "-")
	if strings.HasPrefix(op, "c") {
		base := op[1:]
		switch base {
		case "eq", "ne", "gt", "ge", "lt", "le", "like", "notlike",
			"match", "notmatch", "contains", "notcontains", "in",
			"notin", "replace", "split", "join":
			return base, true
		}
	}
	if strings.HasPrefix(op, "i") {
		base := op[1:]
		switch base {
		case "eq", "ne", "gt", "ge", "lt", "le", "like", "notlike",
			"match", "notmatch", "contains", "notcontains", "in",
			"notin", "replace", "split", "join":
			return base, false
		}
	}
	return op, false
}

func equalsOp(l, r any, caseSensitive bool) bool {
	if ls, ok := l.(string); ok {
		rs := ToString(r)
		if caseSensitive {
			return ls == rs
		}
		return strings.EqualFold(ls, rs)
	}
	if lc, ok := l.(Char); ok {
		rs := ToString(r)
		if caseSensitive {
			return string(rune(lc)) == rs
		}
		return strings.EqualFold(string(rune(lc)), rs)
	}
	nl, errL := ToNumber(l)
	nr, errR := ToNumber(r)
	if errL == nil && errR == nil {
		return numericCompare(nl, nr) == 0
	}
	if lb, ok := l.(bool); ok {
		return lb == ToBool(r)
	}
	return ToString(l) == ToString(r)
}

func compareOp(l, r any, caseSensitive bool) int {
	if ls, ok := l.(string); ok {
		rs := ToString(r)
		if !caseSensitive {
			ls = strings.ToLower(ls)
			rs = strings.ToLower(rs)
		}
		return strings.Compare(ls, rs)
	}
	nl, errL := ToNumber(l)
	nr, errR := ToNumber(r)
	if errL == nil && errR == nil {
		return numericCompare(nl, nr)
	}
	return strings.Compare(strings.ToLower(ToString(l)), strings.ToLower(ToString(r)))
}

func (in *Interp) addValues(l, r any) (any, error) {
	switch lv := l.(type) {
	case nil:
		return r, nil
	case string:
		rs := ToString(r)
		// Enforce the per-string cap on the full result, but charge only
		// the appended delta against the cumulative allocation budget:
		// incremental building ($s = $s + 'a' in a loop) is the single
		// most common obfuscation pattern, and charging the full result
		// each round would make it O(n²) in charged bytes.
		if len(lv)+len(rs) > in.opts.MaxStringLen {
			return nil, ErrBudget
		}
		if err := in.charge(len(rs)); err != nil {
			return nil, err
		}
		return lv + rs, nil
	case []any:
		if rv, ok := r.([]any); ok {
			if err := in.charge(16 * (len(lv) + len(rv))); err != nil {
				return nil, err
			}
			return append(append([]any{}, lv...), rv...), nil
		}
		if err := in.charge(16 * (len(lv) + 1)); err != nil {
			return nil, err
		}
		return append(append([]any{}, lv...), r), nil
	case Char:
		switch rv := r.(type) {
		case string:
			return string(rune(lv)) + rv, nil
		case Char:
			return string(rune(lv)) + string(rune(rv)), nil
		default:
			n, err := ToInt(r)
			if err != nil {
				return nil, err
			}
			return int64(lv) + n, nil
		}
	case *Hashtable:
		if rv, ok := r.(*Hashtable); ok {
			merged := NewHashtable()
			for _, k := range lv.Keys() {
				v, _ := lv.Get(k)
				merged.Set(k, v)
			}
			for _, k := range rv.Keys() {
				v, _ := rv.Get(k)
				merged.Set(k, v)
			}
			return merged, nil
		}
		return nil, fmt.Errorf("%w: hashtable + %T", ErrUnsupported, r)
	case Bytes:
		if rv, ok := r.(Bytes); ok {
			return append(append(Bytes{}, lv...), rv...), nil
		}
	}
	return arith(l, r, func(a, b int64) int64 { return a + b }, func(a, b float64) float64 { return a + b })
}

func (in *Interp) mulValues(l, r any) (any, error) {
	switch lv := l.(type) {
	case string:
		n, err := ToInt(r)
		if err != nil {
			return nil, err
		}
		// Bound n before multiplying so the product cannot wrap int64
		// for huge repeat counts.
		if n < 0 || n > int64(in.opts.MaxStringLen) ||
			int64(len(lv))*n > int64(in.opts.MaxStringLen) {
			return nil, ErrBudget
		}
		if err := in.charge(len(lv) * int(n)); err != nil {
			return nil, err
		}
		return strings.Repeat(lv, int(n)), nil
	case []any:
		n, err := ToInt(r)
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 1<<20 || int64(len(lv))*n > 1<<20 {
			return nil, ErrBudget
		}
		if err := in.charge(16 * len(lv) * int(n)); err != nil {
			return nil, err
		}
		out := make([]any, 0, len(lv)*int(n))
		for i := int64(0); i < n; i++ {
			out = append(out, lv...)
		}
		return out, nil
	}
	return arith(l, r, func(a, b int64) int64 { return a * b }, func(a, b float64) float64 { return a * b })
}

func arith(l, r any, iop func(a, b int64) int64, fop func(a, b float64) float64) (any, error) {
	nl, err := ToNumber(l)
	if err != nil {
		return nil, err
	}
	nr, err := ToNumber(r)
	if err != nil {
		return nil, err
	}
	li, lInt := nl.(int64)
	ri, rInt := nr.(int64)
	if lInt && rInt {
		return iop(li, ri), nil
	}
	return fop(toFloat(nl), toFloat(nr)), nil
}

func toFloat(n any) float64 {
	switch x := n.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

func divide(l, r any) (any, error) {
	nl, err := ToNumber(l)
	if err != nil {
		return nil, err
	}
	nr, err := ToNumber(r)
	if err != nil {
		return nil, err
	}
	li, lInt := nl.(int64)
	ri, rInt := nr.(int64)
	if lInt && rInt {
		if ri == 0 {
			return nil, fmt.Errorf("psinterp: division by zero")
		}
		if li%ri == 0 {
			return li / ri, nil
		}
		return float64(li) / float64(ri), nil
	}
	f := toFloat(nr)
	if f == 0 {
		return nil, fmt.Errorf("psinterp: division by zero")
	}
	return toFloat(nl) / f, nil
}

func bitwise(l, r any, op func(a, b int64) int64) (any, error) {
	li, err := ToInt(l)
	if err != nil {
		return nil, err
	}
	ri, err := ToInt(r)
	if err != nil {
		return nil, err
	}
	return op(li, ri), nil
}

// rangeValues implements the .. operator with a size cap and an
// allocation charge.
func (in *Interp) rangeValues(l, r any) (any, error) {
	lo, err := ToInt(l)
	if err != nil {
		return nil, err
	}
	hi, err := ToInt(r)
	if err != nil {
		return nil, err
	}
	// Multi-layer encoded samples index whole wrapper texts with
	// reversed ranges ('...'[400000..0]), so the hard cap has to admit
	// ranges as long as the longest legal string; the 16-byte-per-
	// element charge below still bounds total memory long before the
	// cap is reached.
	const maxRange = 1 << 23
	size := hi - lo
	if size < 0 {
		size = -size
	}
	if size+1 > maxRange {
		return nil, ErrBudget
	}
	if err := in.charge(16 * int(size+1)); err != nil {
		return nil, err
	}
	out := make([]any, 0, size+1)
	if lo <= hi {
		for v := lo; v <= hi; v++ {
			out = append(out, v)
		}
	} else {
		for v := lo; v >= hi; v-- {
			out = append(out, v)
		}
	}
	return out, nil
}

// splitOperator implements the binary -split operator (regex split,
// flattening array left operands like PowerShell). A separator that is
// plain text splits with strings.SplitN, which gives regexp.Split's
// pieces for every input and limit (see literalSeparator).
func (in *Interp) splitOperator(l, r any, caseSensitive bool) (any, error) {
	pattern := ""
	limit := -1
	switch rv := r.(type) {
	case []any:
		if len(rv) > 0 {
			pattern = ToString(rv[0])
		}
		if len(rv) > 1 {
			n, err := ToInt(rv[1])
			if err == nil && n > 0 {
				limit = int(n)
			}
		}
	default:
		pattern = ToString(r)
	}
	var out []any
	if literalSeparator(pattern, caseSensitive) {
		for _, item := range ToArray(l) {
			pieces := strings.SplitN(ToString(item), pattern, limit)
			out = slices.Grow(out, len(pieces))
			for _, piece := range pieces {
				out = append(out, piece)
			}
		}
		return out, nil
	}
	re, err := compileRegex(pattern, caseSensitive)
	if err != nil {
		return nil, err
	}
	for _, item := range ToArray(l) {
		for _, piece := range re.Split(ToString(item), limit) {
			out = append(out, piece)
		}
	}
	return out, nil
}

// literalSeparator reports whether a -split pattern matches only its
// own text, so that splitting on it as a string equals the regex split.
// It must be non-empty (regexp.Split splits on an empty match per rune)
// and ASCII without regex metacharacters. Case-insensitive patterns
// must also have no letters: (?i) lets k match the Kelvin sign and s
// the long s.
func literalSeparator(pattern string, caseSensitive bool) bool {
	if pattern == "" {
		return false
	}
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		if c >= utf8.RuneSelf || strings.IndexByte(`\.+*?()|[]{}^$`, c) >= 0 {
			return false
		}
		if !caseSensitive && ('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			return false
		}
	}
	return true
}

// replaceOperator implements -replace (regex, case-insensitive by
// default).
func (in *Interp) replaceOperator(l, r any, caseSensitive bool) (any, error) {
	pattern := ""
	replacement := ""
	switch rv := r.(type) {
	case []any:
		if len(rv) > 0 {
			pattern = ToString(rv[0])
		}
		if len(rv) > 1 {
			replacement = ToString(rv[1])
		}
	default:
		pattern = ToString(r)
	}
	re, err := compileRegex(pattern, caseSensitive)
	if err != nil {
		return nil, err
	}
	repl := translateReplacement(replacement)
	apply := func(s string) (string, error) {
		out := re.ReplaceAllString(s, repl)
		if err := in.chargeString(len(out)); err != nil {
			return "", err
		}
		return out, nil
	}
	if arr, ok := l.([]any); ok {
		out := make([]any, len(arr))
		for i, item := range arr {
			s, err := apply(ToString(item))
			if err != nil {
				return nil, err
			}
			out[i] = s
		}
		return out, nil
	}
	return apply(ToString(l))
}

// translateReplacement converts .NET "$1" group references to Go's
// "${1}" form so adjacent text is not absorbed into the group name.
func translateReplacement(repl string) string {
	var sb strings.Builder
	for i := 0; i < len(repl); i++ {
		c := repl[i]
		if c != '$' || i+1 >= len(repl) {
			sb.WriteByte(c)
			continue
		}
		j := i + 1
		if repl[j] == '$' {
			sb.WriteString("$$")
			i = j
			continue
		}
		if repl[j] == '{' {
			sb.WriteByte(c)
			continue
		}
		start := j
		for j < len(repl) && (repl[j] >= '0' && repl[j] <= '9') {
			j++
		}
		if j > start {
			sb.WriteString("${" + repl[start:j] + "}")
			i = j - 1
			continue
		}
		sb.WriteByte(c)
	}
	return sb.String()
}

// compileRegex compiles a .NET-style pattern with PowerShell's default
// case-insensitivity.
func compileRegex(pattern string, caseSensitive bool) (*regexp.Regexp, error) {
	p := translateDotNetRegex(pattern)
	if !caseSensitive {
		p = "(?is)" + p
	} else {
		p = "(?s)" + p
	}
	re, err := regexp.Compile(p)
	if err != nil {
		return nil, fmt.Errorf("%w: regex %q: %v", ErrUnsupported, pattern, err)
	}
	return re, nil
}

// translateDotNetRegex adapts the common .NET regex constructs that
// differ from RE2: named groups (?<name>...) and redundant escapes.
func translateDotNetRegex(p string) string {
	return strings.ReplaceAll(p, "(?<", "(?P<")
}

// compileWildcard converts a PowerShell wildcard pattern (* ? [a-z]) to
// an anchored regular expression.
func compileWildcard(pattern string, caseSensitive bool) (*regexp.Regexp, error) {
	var sb strings.Builder
	if caseSensitive {
		sb.WriteString(`(?s)\A`)
	} else {
		sb.WriteString(`(?is)\A`)
	}
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; c {
		case '*':
			sb.WriteString(".*")
		case '?':
			sb.WriteString(".")
		case '[':
			end := strings.IndexByte(pattern[i:], ']')
			if end < 0 {
				sb.WriteString(regexp.QuoteMeta(pattern[i:]))
				i = len(pattern)
				break
			}
			sb.WriteString(pattern[i : i+end+1])
			i += end
		case '`':
			if i+1 < len(pattern) {
				sb.WriteString(regexp.QuoteMeta(string(pattern[i+1])))
				i++
			}
		default:
			sb.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	sb.WriteString(`\z`)
	re, err := regexp.Compile(sb.String())
	if err != nil {
		return nil, fmt.Errorf("%w: wildcard %q", ErrUnsupported, pattern)
	}
	return re, nil
}

// isOfType implements -is with a pragmatic type-name comparison.
func isOfType(v any, typeName string) bool {
	name := strings.ToLower(strings.Trim(typeName, "[]"))
	name = strings.TrimPrefix(name, "system.")
	switch v.(type) {
	case string:
		return name == "string"
	case int64, int:
		return name == "int" || name == "int32" || name == "int64" || name == "long"
	case float64:
		return name == "double" || name == "float" || name == "single"
	case bool:
		return name == "bool" || name == "boolean"
	case Char:
		return name == "char"
	case []any:
		return name == "array" || name == "object[]" || strings.HasSuffix(name, "[]")
	case Bytes:
		return name == "byte[]" || name == "array"
	case *Hashtable:
		return name == "hashtable" || name == "collections.hashtable"
	case *ScriptBlockValue:
		return name == "scriptblock" || name == "management.automation.scriptblock"
	}
	return false
}

func typeNameOf(r any) string {
	switch x := r.(type) {
	case TypeValue:
		return x.Name
	default:
		return ToString(r)
	}
}
