package psinterp

import (
	"encoding/base64"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// normalizeTypeName lower-cases a type literal and strips whitespace and
// the System. namespace prefix.
func normalizeTypeName(name string) string {
	n := foldName(strings.TrimSpace(name))
	// Strip one bracket wrapper ([int] -> int) without harming array
	// suffixes (byte[] stays byte[]).
	if strings.HasPrefix(n, "[") && strings.HasSuffix(n, "]") && !strings.HasSuffix(n, "[]") {
		n = n[1 : len(n)-1]
	}
	n = strings.TrimPrefix(n, "system.")
	return n
}

// castValue implements [type]value conversions.
func (in *Interp) castValue(typeName string, v any) (any, error) {
	switch normalizeTypeName(typeName) {
	case "char":
		return castChar(v)
	case "char[]":
		switch x := v.(type) {
		case string:
			out := make([]any, 0, len(x))
			for _, r := range x {
				out = append(out, Char(r))
			}
			return out, nil
		case []any:
			out := make([]any, len(x))
			for i, e := range x {
				c, err := castChar(e)
				if err != nil {
					return nil, err
				}
				out[i] = c
			}
			return out, nil
		}
		return nil, fmt.Errorf("%w: [char[]] from %T", ErrUnsupported, v)
	case "string":
		return ToString(v), nil
	case "string[]":
		arr := ToArray(v)
		out := make([]any, len(arr))
		for i, e := range arr {
			out[i] = ToString(e)
		}
		return out, nil
	case "int", "int32", "int64", "long", "int16", "short", "uint32", "uint64", "uint16", "sbyte":
		return ToInt(v)
	case "byte":
		n, err := ToInt(v)
		if err != nil {
			return nil, err
		}
		if n < 0 || n > 255 {
			return nil, fmt.Errorf("psinterp: value %d out of byte range", n)
		}
		return n, nil
	case "byte[]":
		switch x := v.(type) {
		case Bytes:
			return x, nil
		case []any:
			out := make(Bytes, len(x))
			for i, e := range x {
				n, err := ToInt(e)
				if err != nil {
					return nil, err
				}
				out[i] = byte(n)
			}
			return out, nil
		case string:
			return Bytes(x), nil
		}
		return nil, fmt.Errorf("%w: [byte[]] from %T", ErrUnsupported, v)
	case "int[]", "int32[]", "object[]", "array":
		return ToArray(v), nil
	case "double", "float", "single", "decimal":
		n, err := ToNumber(v)
		if err != nil {
			return nil, err
		}
		return toFloat(n), nil
	case "bool", "boolean":
		return ToBool(v), nil
	case "void":
		return nil, nil
	case "object":
		return v, nil
	case "regex", "text.regularexpressions.regex":
		o := NewObject("System.Text.RegularExpressions.Regex")
		o.Data = ToString(v)
		return o, nil
	case "scriptblock", "management.automation.scriptblock":
		src := ToString(v)
		body, err := psparser.Parse(src)
		if err != nil {
			return nil, err
		}
		return &ScriptBlockValue{Text: src, Body: body}, nil
	case "type":
		return TypeValue{Name: ToString(v)}, nil
	case "io.memorystream":
		switch x := v.(type) {
		case Bytes:
			return newMemoryStream(x), nil
		case []any:
			b, err := in.castValue("byte[]", x)
			if err != nil {
				return nil, err
			}
			return newMemoryStream(b.(Bytes)), nil
		}
		return nil, fmt.Errorf("%w: [IO.MemoryStream] from %T", ErrUnsupported, v)
	case "security.securestring", "securestring":
		if ss, ok := v.(*SecureString); ok {
			return ss, nil
		}
		return nil, fmt.Errorf("%w: [securestring] from %T", ErrUnsupported, v)
	case "uri":
		o := NewObject("System.Uri")
		o.Data = ToString(v)
		o.Props["absoluteuri"] = ToString(v)
		return o, nil
	case "guid":
		return ToString(v), nil
	case "ref":
		return v, nil
	}
	return nil, fmt.Errorf("%w: cast to [%s]", ErrUnsupported, typeName)
}

func castChar(v any) (any, error) {
	switch x := v.(type) {
	case Char:
		return x, nil
	case int64:
		if x < 0 || x > 0x10FFFF {
			return nil, fmt.Errorf("psinterp: %d out of char range", x)
		}
		return Char(rune(x)), nil
	case float64:
		return castChar(int64(math.RoundToEven(x)))
	case string:
		r := []rune(x)
		if len(r) != 1 {
			// PowerShell allows casting numeric strings.
			if n, err := ToInt(x); err == nil {
				return castChar(n)
			}
			return nil, fmt.Errorf("psinterp: cannot cast %q to char", x)
		}
		return Char(r[0]), nil
	case bool:
		return nil, fmt.Errorf("%w: [char] from bool", ErrUnsupported)
	}
	if n, err := ToInt(v); err == nil {
		return castChar(n)
	}
	return nil, fmt.Errorf("%w: [char] from %T", ErrUnsupported, v)
}

func newMemoryStream(b Bytes) *Object {
	o := NewObject("System.IO.MemoryStream")
	o.Data = b
	o.Props["length"] = int64(len(b))
	return o
}

// newEncoding returns an encoding Object for the given variant
// (utf8, unicode, ascii, utf32, bigendianunicode, default, utf7).
func newEncoding(variant string) *Object {
	o := NewObject("System.Text.Encoding")
	o.Data = strings.ToLower(variant)
	return o
}

// staticProperty implements [Type]::Member reads.
func (in *Interp) staticProperty(typeName, member string) (any, error) {
	t := normalizeTypeName(typeName)
	m := foldName(member)
	switch t {
	case "text.encoding", "encoding":
		switch m {
		case "utf8", "unicode", "ascii", "utf32", "utf7", "bigendianunicode", "default":
			return newEncoding(m), nil
		}
	case "char":
		switch m {
		case "maxvalue":
			return Char(0xFFFF), nil
		case "minvalue":
			return Char(0), nil
		}
	case "int", "int32":
		switch m {
		case "maxvalue":
			return int64(math.MaxInt32), nil
		case "minvalue":
			return int64(math.MinInt32), nil
		}
	case "byte":
		switch m {
		case "maxvalue":
			return int64(255), nil
		case "minvalue":
			return int64(0), nil
		}
	case "math":
		switch m {
		case "pi":
			return math.Pi, nil
		case "e":
			return math.E, nil
		}
	case "environment":
		switch m {
		case "newline":
			return "\r\n", nil
		case "machinename":
			in.markImpure("env read: [environment]::machinename")
			return in.env["computername"], nil
		case "username":
			in.markImpure("env read: [environment]::username")
			return in.env["username"], nil
		case "systemdirectory":
			return "C:\\WINDOWS\\system32", nil
		case "currentdirectory":
			return "C:\\Users\\user", nil
		case "osversion":
			return "Microsoft Windows NT 10.0.19041.0", nil
		}
	case "string":
		if m == "empty" {
			return "", nil
		}
	case "guid":
		if m == "empty" {
			return "00000000-0000-0000-0000-000000000000", nil
		}
	case "io.compression.compressionmode", "compressionmode":
		switch m {
		case "decompress":
			return "Decompress", nil
		case "compress":
			return "Compress", nil
		}
	case "net.securityprotocoltype", "securityprotocoltype":
		return member, nil
	case "net.servicepointmanager", "servicepointmanager":
		return member, nil
	case "datetime":
		switch m {
		case "now", "utcnow":
			in.markImpure("nondeterminism: [datetime]::" + m)
			return "01/01/2021 00:00:00", nil
		}
	case "intptr":
		if m == "zero" {
			return int64(0), nil
		}
	}
	return nil, fmt.Errorf("%w: [%s]::%s", ErrUnsupported, typeName, member)
}

// staticMethod implements [Type]::Method(args) calls.
func (in *Interp) staticMethod(typeName, method string, args []any) (any, error) {
	t := normalizeTypeName(typeName)
	m := foldName(method)
	switch t {
	case "convert":
		return in.convertStatic(m, args)
	case "char":
		return charStatic(m, args)
	case "string":
		return in.stringStatic(m, args)
	case "array":
		return arrayStatic(m, args)
	case "math":
		return mathStatic(m, args)
	case "regex", "text.regularexpressions.regex":
		return in.regexStatic(m, args)
	case "environment":
		if m == "getenvironmentvariable" && len(args) >= 1 {
			in.markImpure("env read: [environment]::getenvironmentvariable")
			return in.env[strings.ToLower(ToString(args[0]))], nil
		}
		if m == "setenvironmentvariable" && len(args) >= 2 {
			in.markImpure("env write: [environment]::setenvironmentvariable")
			in.setEnv(strings.ToLower(ToString(args[0])), ToString(args[1]))
			return nil, nil
		}
	case "runtime.interopservices.marshal", "marshal":
		return marshalStatic(m, args)
	case "scriptblock", "management.automation.scriptblock":
		if m == "create" && len(args) == 1 {
			return in.castValue("scriptblock", args[0])
		}
	case "text.encoding", "encoding":
		if m == "getencoding" && len(args) == 1 {
			name := strings.ToLower(strings.ReplaceAll(ToString(args[0]), "-", ""))
			switch name {
			case "utf8", "65001":
				return newEncoding("utf8"), nil
			case "utf16", "1200", "unicode":
				return newEncoding("unicode"), nil
			case "ascii", "20127", "usascii":
				return newEncoding("ascii"), nil
			default:
				return newEncoding("utf8"), nil
			}
		}
	case "io.path", "path":
		switch m {
		case "gettemppath":
			in.markImpure("env read: [io.path]::gettemppath")
			return in.env["temp"] + "\\", nil
		case "combine":
			parts := make([]string, len(args))
			for i, a := range args {
				parts[i] = strings.TrimRight(ToString(a), "\\")
			}
			return strings.Join(parts, "\\"), nil
		case "getfilename":
			p := ToString(firstArg(args))
			if i := strings.LastIndexAny(p, "\\/"); i >= 0 {
				return p[i+1:], nil
			}
			return p, nil
		case "getextension":
			p := ToString(firstArg(args))
			if i := strings.LastIndexByte(p, '.'); i >= 0 {
				return p[i:], nil
			}
			return "", nil
		case "getrandomfilename":
			in.markImpure("nondeterminism: [io.path]::getrandomfilename")
			return "deterministic.tmp", nil
		}
	case "guid":
		if m == "newguid" {
			in.markImpure("nondeterminism: [guid]::newguid")
			in.steps += 7 // advance a little entropy deterministically
			return fmt.Sprintf("%08x-0000-4000-8000-000000000000", in.steps), nil
		}
	case "threading.thread", "thread":
		if m == "sleep" {
			return nil, nil
		}
	case "diagnostics.process", "process":
		if m == "start" {
			name := ToString(firstArg(args))
			var rest []string
			for _, a := range args[1:] {
				rest = append(rest, ToString(a))
			}
			return nil, in.host.StartProcess(name, rest)
		}
	case "net.dns", "dns":
		if m == "gethostaddresses" || m == "resolve" || m == "gethostentry" {
			if err := in.host.DNSResolve(ToString(firstArg(args))); err != nil {
				return nil, err
			}
			return "93.184.216.34", nil
		}
	case "console":
		if m == "writeline" || m == "write" {
			in.writeConsole(ToString(firstArg(args)))
			return nil, nil
		}
	case "int", "int32", "int64", "long", "byte", "int16":
		if m == "parse" && len(args) >= 1 {
			return ToInt(args[0])
		}
	case "double", "float", "single":
		if m == "parse" && len(args) >= 1 {
			n, err := ToNumber(args[0])
			if err != nil {
				return nil, err
			}
			return toFloat(n), nil
		}
	case "io.file", "file":
		switch m {
		case "exists":
			return false, nil
		case "writealltext":
			if len(args) >= 2 {
				return nil, in.host.WriteFile(ToString(args[0]), ToString(args[1]))
			}
		case "writeallbytes":
			if len(args) >= 2 {
				b, err := in.castValue("byte[]", args[1])
				if err != nil {
					return nil, err
				}
				return nil, in.host.WriteFile(ToString(args[0]), string(b.(Bytes)))
			}
		case "readalltext", "readallbytes":
			return nil, ErrSideEffect
		}
	case "web.httputility", "httputility", "net.webutility", "webutility":
		switch m {
		case "urldecode", "htmldecode", "urlencode", "htmlencode":
			return ToString(firstArg(args)), nil
		}
	}
	return nil, fmt.Errorf("%w: [%s]::%s()", ErrUnsupported, typeName, method)
}

func firstArg(args []any) any {
	if len(args) == 0 {
		return nil
	}
	return args[0]
}

func (in *Interp) convertStatic(m string, args []any) (any, error) {
	switch m {
	case "frombase64string":
		s := strings.TrimSpace(ToString(firstArg(args)))
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			// Tolerate missing padding, common in obfuscated samples.
			b, err = base64.RawStdEncoding.DecodeString(strings.TrimRight(s, "="))
			if err != nil {
				return nil, fmt.Errorf("psinterp: FromBase64String: %v", err)
			}
		}
		if err := in.charge(len(b)); err != nil {
			return nil, err
		}
		return Bytes(b), nil
	case "tobase64string":
		b, err := in.castValue("byte[]", firstArg(args))
		if err != nil {
			return nil, err
		}
		return base64.StdEncoding.EncodeToString(b.(Bytes)), nil
	case "toint16", "toint32", "toint64", "tobyte", "touint32":
		if len(args) >= 2 {
			base, err := ToInt(args[1])
			if err != nil {
				return nil, err
			}
			s := strings.TrimSpace(ToString(args[0]))
			n, err := strconv.ParseInt(s, int(base), 64)
			if err != nil {
				return nil, fmt.Errorf("psinterp: Convert::%s(%q, %d): %v", m, s, base, err)
			}
			return n, nil
		}
		return ToInt(firstArg(args))
	case "tochar":
		return castChar(firstArg(args))
	case "tostring":
		if len(args) >= 2 {
			n, err := ToInt(args[0])
			if err != nil {
				return nil, err
			}
			base, err := ToInt(args[1])
			if err != nil {
				return nil, err
			}
			return strconv.FormatInt(n, int(base)), nil
		}
		return ToString(firstArg(args)), nil
	case "toboolean":
		return ToBool(firstArg(args)), nil
	case "todouble":
		n, err := ToNumber(firstArg(args))
		if err != nil {
			return nil, err
		}
		return toFloat(n), nil
	}
	return nil, fmt.Errorf("%w: [convert]::%s", ErrUnsupported, m)
}

func charStatic(m string, args []any) (any, error) {
	switch m {
	case "convertfromutf32":
		n, err := ToInt(firstArg(args))
		if err != nil {
			return nil, err
		}
		return string(rune(n)), nil
	case "toupper":
		c, err := castChar(firstArg(args))
		if err != nil {
			return nil, err
		}
		return Char(strings.ToUpper(string(rune(c.(Char))))[0]), nil
	case "tolower":
		c, err := castChar(firstArg(args))
		if err != nil {
			return nil, err
		}
		return Char(strings.ToLower(string(rune(c.(Char))))[0]), nil
	case "isdigit":
		c, err := castChar(firstArg(args))
		if err != nil {
			return nil, err
		}
		r := rune(c.(Char))
		return r >= '0' && r <= '9', nil
	case "isletter":
		c, err := castChar(firstArg(args))
		if err != nil {
			return nil, err
		}
		r := rune(c.(Char))
		return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z', nil
	case "getnumericvalue":
		c, err := castChar(firstArg(args))
		if err != nil {
			return nil, err
		}
		r := rune(c.(Char))
		if r >= '0' && r <= '9' {
			return float64(r - '0'), nil
		}
		return float64(-1), nil
	case "tostring":
		c, err := castChar(firstArg(args))
		if err != nil {
			return nil, err
		}
		return string(rune(c.(Char))), nil
	}
	return nil, fmt.Errorf("%w: [char]::%s", ErrUnsupported, m)
}

func (in *Interp) stringStatic(m string, args []any) (any, error) {
	switch m {
	case "join":
		if len(args) < 2 {
			return "", nil
		}
		sep := ToString(args[0])
		var items []any
		if len(args) == 2 {
			items = ToArray(args[1])
		} else {
			items = args[1:]
		}
		parts := make([]string, len(items))
		for i, it := range items {
			parts[i] = ToString(it)
		}
		s := strings.Join(parts, sep)
		if err := in.chargeString(len(s)); err != nil {
			return nil, err
		}
		return s, nil
	case "format":
		if len(args) == 0 {
			return "", nil
		}
		return in.formatOperator(ToString(args[0]), args[1:])
	case "concat":
		var sb strings.Builder
		for _, a := range args {
			for _, item := range ToArray(a) {
				sb.WriteString(ToString(item))
			}
			if sb.Len() > in.opts.MaxStringLen {
				return nil, ErrBudget
			}
		}
		if err := in.charge(sb.Len()); err != nil {
			return nil, err
		}
		return sb.String(), nil
	case "isnullorempty":
		return ToString(firstArg(args)) == "", nil
	case "isnullorwhitespace":
		return strings.TrimSpace(ToString(firstArg(args))) == "", nil
	case "new":
		// [string]::new(char[]) or [string]::new(char, count)
		if len(args) == 2 {
			c, err := castChar(args[0])
			if err == nil {
				n, err := ToInt(args[1])
				if err != nil {
					return nil, err
				}
				unit := string(rune(c.(Char)))
				// Reject the count before multiplying: n*len(unit) can
				// wrap int64 for huge n (e.g. 2^62 with a 4-byte rune),
				// bypassing both caps (mirrors mulValues' pattern).
				if n < 0 || n > int64(in.opts.MaxStringLen) ||
					n*int64(len(unit)) > int64(in.opts.MaxStringLen) {
					return nil, ErrBudget
				}
				if err := in.charge(int(n) * len(unit)); err != nil {
					return nil, err
				}
				return strings.Repeat(unit, int(n)), nil
			}
		}
		var sb strings.Builder
		for _, item := range ToArray(firstArg(args)) {
			sb.WriteString(ToString(item))
			if sb.Len() > in.opts.MaxStringLen {
				return nil, ErrBudget
			}
		}
		if err := in.charge(sb.Len()); err != nil {
			return nil, err
		}
		return sb.String(), nil
	case "copy":
		return ToString(firstArg(args)), nil
	case "compare":
		if len(args) >= 2 {
			return int64(strings.Compare(ToString(args[0]), ToString(args[1]))), nil
		}
	case "equals":
		if len(args) >= 2 {
			return ToString(args[0]) == ToString(args[1]), nil
		}
	}
	return nil, fmt.Errorf("%w: [string]::%s", ErrUnsupported, m)
}

func arrayStatic(m string, args []any) (any, error) {
	switch m {
	case "reverse":
		arr, ok := firstArg(args).([]any)
		if !ok {
			if b, isBytes := firstArg(args).(Bytes); isBytes {
				for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
					b[i], b[j] = b[j], b[i]
				}
				return nil, nil
			}
			return nil, fmt.Errorf("%w: [array]::Reverse on %T", ErrUnsupported, firstArg(args))
		}
		for i, j := 0, len(arr)-1; i < j; i, j = i+1, j-1 {
			arr[i], arr[j] = arr[j], arr[i]
		}
		return nil, nil
	case "indexof":
		if len(args) >= 2 {
			for i, v := range ToArray(args[0]) {
				if DeepEqualFold(v, args[1]) {
					return int64(i), nil
				}
			}
			return int64(-1), nil
		}
	case "sort":
		if arr, ok := firstArg(args).([]any); ok {
			sorted := sortValues(arr, false)
			copy(arr, sorted)
			return nil, nil
		}
	}
	return nil, fmt.Errorf("%w: [array]::%s", ErrUnsupported, m)
}

func mathStatic(m string, args []any) (any, error) {
	unary := func(f func(float64) float64) (any, error) {
		n, err := ToNumber(firstArg(args))
		if err != nil {
			return nil, err
		}
		r := f(toFloat(n))
		if r == math.Trunc(r) && math.Abs(r) < 1e15 {
			return int64(r), nil
		}
		return r, nil
	}
	switch m {
	case "abs":
		return unary(math.Abs)
	case "floor":
		return unary(math.Floor)
	case "ceiling":
		return unary(math.Ceil)
	case "round":
		return unary(math.RoundToEven)
	case "truncate":
		return unary(math.Trunc)
	case "sqrt":
		return unary(math.Sqrt)
	case "log":
		return unary(math.Log)
	case "exp":
		return unary(math.Exp)
	case "pow":
		if len(args) >= 2 {
			a, err := ToNumber(args[0])
			if err != nil {
				return nil, err
			}
			b, err := ToNumber(args[1])
			if err != nil {
				return nil, err
			}
			r := math.Pow(toFloat(a), toFloat(b))
			if r == math.Trunc(r) && math.Abs(r) < 1e15 {
				return int64(r), nil
			}
			return r, nil
		}
	case "max", "min":
		if len(args) >= 2 {
			a, err := ToNumber(args[0])
			if err != nil {
				return nil, err
			}
			b, err := ToNumber(args[1])
			if err != nil {
				return nil, err
			}
			af, bf := toFloat(a), toFloat(b)
			r := math.Max(af, bf)
			if m == "min" {
				r = math.Min(af, bf)
			}
			if r == math.Trunc(r) {
				return int64(r), nil
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("%w: [math]::%s", ErrUnsupported, m)
}

func (in *Interp) regexStatic(m string, args []any) (any, error) {
	switch m {
	case "replace":
		if len(args) >= 3 {
			re, err := compileRegex(ToString(args[1]), true)
			if err != nil {
				return nil, err
			}
			return re.ReplaceAllString(ToString(args[0]), translateReplacement(ToString(args[2]))), nil
		}
	case "split":
		if len(args) >= 2 {
			re, err := compileRegex(ToString(args[1]), true)
			if err != nil {
				return nil, err
			}
			pieces := re.Split(ToString(args[0]), -1)
			out := make([]any, len(pieces))
			for i, p := range pieces {
				out[i] = p
			}
			return out, nil
		}
	case "match":
		if len(args) >= 2 {
			re, err := compileRegex(ToString(args[1]), true)
			if err != nil {
				return nil, err
			}
			mres := re.FindString(ToString(args[0]))
			o := NewObject("System.Text.RegularExpressions.Match")
			o.Props["value"] = mres
			o.Props["success"] = mres != ""
			return o, nil
		}
	case "matches":
		if len(args) >= 2 {
			re, err := compileRegex(ToString(args[1]), true)
			if err != nil {
				return nil, err
			}
			var out []any
			for _, mres := range re.FindAllString(ToString(args[0]), -1) {
				o := NewObject("System.Text.RegularExpressions.Match")
				o.Props["value"] = mres
				o.Props["success"] = true
				out = append(out, o)
			}
			return out, nil
		}
	case "escape":
		return escapeRegexMeta(ToString(firstArg(args))), nil
	case "unescape":
		s := ToString(firstArg(args))
		var sb strings.Builder
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				sb.WriteByte(s[i])
				continue
			}
			sb.WriteByte(s[i])
		}
		return sb.String(), nil
	}
	return nil, fmt.Errorf("%w: [regex]::%s", ErrUnsupported, m)
}

func escapeRegexMeta(s string) string {
	var sb strings.Builder
	for _, r := range s {
		if strings.ContainsRune(`\.*+?()[]{}|^$#`, r) || r == ' ' {
			sb.WriteByte('\\')
		}
		sb.WriteRune(r)
	}
	return sb.String()
}

func marshalStatic(m string, args []any) (any, error) {
	switch m {
	case "securestringtobstr", "securestringtoglobalallocunicode", "securestringtoglobalallocansi":
		return firstArg(args), nil
	case "ptrtostringauto", "ptrtostringuni", "ptrtostringbstr", "ptrtostringansi":
		switch v := firstArg(args).(type) {
		case *SecureString:
			return v.Plain, nil
		case string:
			return v, nil
		case nil:
			return "", nil
		default:
			return ToString(v), nil
		}
	case "zerofreebstr", "zerofreeglobalallocunicode", "freehglobal":
		return nil, nil
	}
	return nil, fmt.Errorf("%w: [Marshal]::%s", ErrUnsupported, m)
}

// writeConsole appends console output to the transcript and host.
// Console output is an observable side effect a cached replay would
// not reproduce, so it marks the run impure.
func (in *Interp) writeConsole(s string) {
	in.markImpure("console output")
	if in.console.Len() < in.opts.MaxStringLen {
		in.console.WriteString(s)
		in.console.WriteByte('\n')
	}
	in.host.WriteHost(s)
}
