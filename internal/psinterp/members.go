package psinterp

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
	"unicode/utf16"
)

// getProperty implements instance property access (target.Name).
func (in *Interp) getProperty(target any, name string) (any, error) {
	n := foldName(name)
	switch t := target.(type) {
	case string:
		switch n {
		case "length", "count":
			return int64(len([]rune(t))), nil
		}
	case []any:
		switch n {
		case "length", "count":
			return int64(len(t)), nil
		case "rank":
			return int64(1), nil
		}
		// Member access on an array projects the member over elements.
		out := make([]any, 0, len(t))
		for _, item := range t {
			v, err := in.getProperty(item, name)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case Bytes:
		switch n {
		case "length", "count":
			return int64(len(t)), nil
		}
	case Char:
		if n == "length" || n == "count" {
			return int64(1), nil
		}
	case int64, float64, bool:
		if n == "length" || n == "count" {
			return int64(1), nil
		}
	case *Hashtable:
		switch n {
		case "count", "length":
			return int64(t.Len()), nil
		case "keys":
			keys := t.Keys()
			out := make([]any, len(keys))
			for i, k := range keys {
				out[i] = k
			}
			return out, nil
		case "values":
			keys := t.Keys()
			out := make([]any, len(keys))
			for i, k := range keys {
				out[i], _ = t.Get(k)
			}
			return out, nil
		default:
			v, _ := t.Get(name)
			return v, nil
		}
	case *ScriptBlockValue:
		if n == "length" || n == "count" {
			return int64(1), nil
		}
		if n == "ast" {
			return t, nil
		}
	case *SecureString:
		if n == "length" {
			return int64(len(t.Plain)), nil
		}
	case TypeValue:
		switch n {
		case "name":
			parts := strings.Split(t.Name, ".")
			return parts[len(parts)-1], nil
		case "fullname":
			return t.Name, nil
		case "assembly":
			return NewObject("System.Reflection.Assembly"), nil
		}
	case *Object:
		return in.objectProperty(t, n)
	case nil:
		return nil, fmt.Errorf("psinterp: property %q on null", name)
	}
	return nil, fmt.Errorf("%w: property %q on %T", ErrUnsupported, name, target)
}

func (in *Interp) objectProperty(o *Object, n string) (any, error) {
	if v, ok := o.Props[n]; ok {
		return v, nil
	}
	switch o.TypeName {
	case "System.Net.WebClient":
		switch n {
		case "headers", "querystring":
			h := NewHashtable()
			o.Props[n] = h
			return h, nil
		case "encoding":
			return newEncoding("utf8"), nil
		case "proxy", "credentials", "cachepolicy", "useragent":
			return nil, nil
		}
	case "System.Management.Automation.EngineIntrinsics":
		switch n {
		case "invokecommand":
			return NewObject("System.Management.Automation.CommandInvocationIntrinsics"), nil
		case "sessionstate":
			return NewObject("System.Management.Automation.SessionState"), nil
		}
	case "System.Management.Automation.PSVariable":
		switch n {
		case "name", "value", "description":
			return o.Props[n], nil
		}
	case "System.IO.MemoryStream":
		switch n {
		case "length":
			if b, ok := o.Data.(Bytes); ok {
				return int64(len(b)), nil
			}
		case "position":
			return int64(0), nil
		}
	case "System.Uri":
		switch n {
		case "absoluteuri", "originalstring":
			return ToString(o.Data), nil
		case "host":
			return uriHost(ToString(o.Data)), nil
		}
	}
	// Unset known-benign properties read as null.
	return nil, fmt.Errorf("%w: property %q on %s", ErrUnsupported, n, o.TypeName)
}

func uriHost(u string) string {
	s := u
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	for _, sep := range []byte{'/', ':', '?'} {
		if i := strings.IndexByte(s, sep); i >= 0 {
			s = s[:i]
		}
	}
	return s
}

// setProperty implements property assignment.
func (in *Interp) setProperty(target any, name string, value any) error {
	switch t := target.(type) {
	case *Object:
		t.Props[strings.ToLower(name)] = value
		return nil
	case *Hashtable:
		t.Set(name, value)
		return nil
	case TypeValue:
		// Static property assignment (e.g. ServicePointManager's
		// SecurityProtocol) is accepted and ignored.
		return nil
	}
	return fmt.Errorf("%w: set property %q on %T", ErrUnsupported, name, target)
}

// invokeMethod implements instance method calls.
func (in *Interp) invokeMethod(target any, name string, args []any, sc *scope) (any, error) {
	n := foldName(name)
	// Universal object methods.
	switch n {
	case "tostring":
		if len(args) >= 1 {
			if num, err := ToInt(target); err == nil {
				// number.ToString("X2") style.
				s, ferr := applyFormatSpec(num, ToString(args[0]))
				if ferr == nil {
					return s, nil
				}
			}
		}
		if sb, ok := target.(*ScriptBlockValue); ok {
			return sb.Text, nil
		}
		return ToString(target), nil
	case "gettype":
		return TypeValue{Name: runtimeTypeName(target)}, nil
	case "equals":
		if len(args) >= 1 {
			return DeepEqualFold(target, args[0]), nil
		}
		return false, nil
	case "gethashcode":
		return int64(len(ToString(target))), nil
	}
	switch t := target.(type) {
	case string:
		return in.stringMethod(t, n, args)
	case Char:
		return in.stringMethod(string(rune(t)), n, args)
	case []any:
		return in.arrayMethod(t, n, args)
	case Bytes:
		arr := ToArray(t)
		return in.arrayMethod(arr, n, args)
	case *Hashtable:
		return hashtableMethod(t, n, args)
	case *ScriptBlockValue:
		switch n {
		case "invoke", "invokereturnasis":
			out, err := in.InvokeScriptBlock(t, args, nil, in.global)
			if err != nil {
				return nil, err
			}
			if n == "invokereturnasis" {
				return Unwrap(out), nil
			}
			// Invoke returns a collection.
			return out, nil
		case "getnewclosure":
			return t, nil
		case "createdelegate":
			return t, nil
		}
	case *Object:
		return in.objectMethod(t, n, args, sc)
	case int64, float64:
		switch n {
		case "compareto":
			if len(args) >= 1 {
				return int64(compareOp(target, args[0], false)), nil
			}
		}
	case *SecureString:
		if n == "copy" {
			return &SecureString{Plain: t.Plain}, nil
		}
	}
	return nil, fmt.Errorf("%w: method %q on %T", ErrUnsupported, name, target)
}

func runtimeTypeName(v any) string {
	switch v.(type) {
	case string:
		return "System.String"
	case int64, int:
		return "System.Int32"
	case float64:
		return "System.Double"
	case bool:
		return "System.Boolean"
	case Char:
		return "System.Char"
	case []any:
		return "System.Object[]"
	case Bytes:
		return "System.Byte[]"
	case *Hashtable:
		return "System.Collections.Hashtable"
	case *ScriptBlockValue:
		return "System.Management.Automation.ScriptBlock"
	case *SecureString:
		return "System.Security.SecureString"
	case *Object:
		return v.(*Object).TypeName
	case nil:
		return ""
	}
	return fmt.Sprintf("%T", v)
}

func (in *Interp) stringMethod(s, n string, args []any) (any, error) {
	argStr := func(i int) string {
		if i < len(args) {
			return ToString(args[i])
		}
		return ""
	}
	argInt := func(i int) (int, error) {
		if i >= len(args) {
			return 0, fmt.Errorf("psinterp: missing argument %d", i)
		}
		v, err := ToInt(args[i])
		return int(v), err
	}
	switch n {
	case "toupper", "toupperinvariant":
		return strings.ToUpper(s), nil
	case "tolower", "tolowerinvariant":
		return strings.ToLower(s), nil
	case "replace":
		out := strings.ReplaceAll(s, argStr(0), argStr(1))
		if err := in.chargeString(len(out)); err != nil {
			return nil, err
		}
		return out, nil
	case "split":
		if len(args) == 0 {
			return splitWhitespace(s), nil
		}
		var seps []string
		for _, a := range args {
			switch av := a.(type) {
			case []any:
				for _, e := range av {
					seps = append(seps, ToString(e))
				}
			case Char:
				seps = append(seps, string(rune(av)))
			case string:
				for _, r := range av {
					// String.Split(string) splits on each character in
					// .NET's char[] overload.
					seps = append(seps, string(r))
				}
			default:
				seps = append(seps, ToString(a))
			}
		}
		pieces := splitAny(s, seps)
		out := make([]any, len(pieces))
		for i, p := range pieces {
			out[i] = p
		}
		return out, nil
	case "substring":
		start, err := argInt(0)
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		if start < 0 || start > len(runes) {
			return nil, fmt.Errorf("psinterp: substring start %d out of range", start)
		}
		if len(args) >= 2 {
			length, err := argInt(1)
			if err != nil {
				return nil, err
			}
			if length < 0 || start+length > len(runes) {
				return nil, fmt.Errorf("psinterp: substring length %d out of range", length)
			}
			return string(runes[start : start+length]), nil
		}
		return string(runes[start:]), nil
	case "trim":
		if len(args) == 0 {
			return strings.TrimSpace(s), nil
		}
		return strings.Trim(s, trimSet(args)), nil
	case "trimstart":
		if len(args) == 0 {
			return strings.TrimLeft(s, " \t\r\n"), nil
		}
		return strings.TrimLeft(s, trimSet(args)), nil
	case "trimend":
		if len(args) == 0 {
			return strings.TrimRight(s, " \t\r\n"), nil
		}
		return strings.TrimRight(s, trimSet(args)), nil
	case "startswith":
		if len(args) >= 2 {
			return strings.HasPrefix(strings.ToLower(s), strings.ToLower(argStr(0))), nil
		}
		return strings.HasPrefix(s, argStr(0)), nil
	case "endswith":
		if len(args) >= 2 {
			return strings.HasSuffix(strings.ToLower(s), strings.ToLower(argStr(0))), nil
		}
		return strings.HasSuffix(s, argStr(0)), nil
	case "contains":
		return strings.Contains(s, argStr(0)), nil
	case "indexof":
		return int64(strings.Index(s, argStr(0))), nil
	case "lastindexof":
		return int64(strings.LastIndex(s, argStr(0))), nil
	case "tochararray":
		out := make([]any, 0, len(s))
		for _, r := range s {
			out = append(out, Char(r))
		}
		return out, nil
	case "padleft":
		width, err := argInt(0)
		if err != nil {
			return nil, err
		}
		if width > in.opts.MaxStringLen {
			return nil, ErrBudget
		}
		pad := " "
		if len(args) >= 2 {
			pad = ToString(args[1])
		}
		if pad != "" && len(s) < width {
			if err := in.charge(width); err != nil {
				return nil, err
			}
			var sb strings.Builder
			sb.Grow(width)
			for sb.Len()+len(s) < width {
				sb.WriteString(pad)
			}
			sb.WriteString(s)
			s = sb.String()
		}
		return s, nil
	case "padright":
		width, err := argInt(0)
		if err != nil {
			return nil, err
		}
		if width > in.opts.MaxStringLen {
			return nil, ErrBudget
		}
		pad := " "
		if len(args) >= 2 {
			pad = ToString(args[1])
		}
		if pad != "" && len(s) < width {
			if err := in.charge(width); err != nil {
				return nil, err
			}
			var sb strings.Builder
			sb.Grow(width)
			sb.WriteString(s)
			for sb.Len() < width {
				sb.WriteString(pad)
			}
			s = sb.String()
		}
		return s, nil
	case "remove":
		start, err := argInt(0)
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		if start < 0 || start > len(runes) {
			return nil, fmt.Errorf("psinterp: remove start out of range")
		}
		if len(args) >= 2 {
			count, err := argInt(1)
			if err != nil {
				return nil, err
			}
			if count < 0 || start+count > len(runes) {
				return nil, fmt.Errorf("psinterp: remove count out of range")
			}
			return string(runes[:start]) + string(runes[start+count:]), nil
		}
		return string(runes[:start]), nil
	case "insert":
		at, err := argInt(0)
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		if at < 0 || at > len(runes) {
			return nil, fmt.Errorf("psinterp: insert position out of range")
		}
		return string(runes[:at]) + argStr(1) + string(runes[at:]), nil
	case "normalize":
		return s, nil
	case "chars":
		i, err := argInt(0)
		if err != nil {
			return nil, err
		}
		runes := []rune(s)
		if i < 0 || i >= len(runes) {
			return nil, fmt.Errorf("psinterp: chars index out of range")
		}
		return Char(runes[i]), nil
	case "compareto":
		return int64(strings.Compare(s, argStr(0))), nil
	case "clone":
		return s, nil
	case "getenumerator":
		out := make([]any, 0, len(s))
		for _, r := range s {
			out = append(out, Char(r))
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: string method %q", ErrUnsupported, n)
}

func trimSet(args []any) string {
	var sb strings.Builder
	for _, a := range args {
		for _, item := range ToArray(a) {
			sb.WriteString(ToString(item))
		}
	}
	return sb.String()
}

// splitAny splits s on any of the separator strings.
func splitAny(s string, seps []string) []string {
	parts := []string{s}
	for _, sep := range seps {
		if sep == "" {
			continue
		}
		var next []string
		for _, p := range parts {
			next = append(next, strings.Split(p, sep)...)
		}
		parts = next
	}
	return parts
}

func (in *Interp) arrayMethod(arr []any, n string, args []any) (any, error) {
	switch n {
	case "contains":
		for _, v := range arr {
			if DeepEqualFold(v, firstArg(args)) {
				return true, nil
			}
		}
		return false, nil
	case "indexof":
		for i, v := range arr {
			if DeepEqualFold(v, firstArg(args)) {
				return int64(i), nil
			}
		}
		return int64(-1), nil
	case "getvalue":
		i, err := ToInt(firstArg(args))
		if err != nil {
			return nil, err
		}
		return indexValue(arr, i)
	case "clone":
		return append([]any(nil), arr...), nil
	case "getlength":
		return int64(len(arr)), nil
	case "join":
		return strings.Join(toStrings(arr), ToString(firstArg(args))), nil
	}
	return nil, fmt.Errorf("%w: array method %q", ErrUnsupported, n)
}

func toStrings(arr []any) []string {
	out := make([]string, len(arr))
	for i, v := range arr {
		out[i] = ToString(v)
	}
	return out
}

func hashtableMethod(h *Hashtable, n string, args []any) (any, error) {
	switch n {
	case "add", "set_item":
		if len(args) >= 2 {
			h.Set(ToString(args[0]), args[1])
		}
		return nil, nil
	case "containskey", "contains":
		_, ok := h.Get(ToString(firstArg(args)))
		return ok, nil
	case "containsvalue":
		for _, k := range h.Keys() {
			v, _ := h.Get(k)
			if DeepEqualFold(v, firstArg(args)) {
				return true, nil
			}
		}
		return false, nil
	case "get_item":
		v, _ := h.Get(ToString(firstArg(args)))
		return v, nil
	case "remove":
		key := strings.ToLower(ToString(firstArg(args)))
		for i, k := range h.keys {
			if strings.ToLower(k) == key {
				h.keys = append(h.keys[:i], h.keys[i+1:]...)
				break
			}
		}
		delete(h.values, key)
		return nil, nil
	case "clear":
		h.keys = nil
		h.values = make(map[string]any)
		return nil, nil
	}
	return nil, fmt.Errorf("%w: hashtable method %q", ErrUnsupported, n)
}

func (in *Interp) objectMethod(o *Object, n string, args []any, sc *scope) (any, error) {
	switch o.TypeName {
	case "System.Net.WebClient":
		switch n {
		case "downloadstring":
			return in.host.DownloadString(ToString(firstArg(args)))
		case "downloadfile":
			if len(args) >= 2 {
				return nil, in.host.DownloadFile(ToString(args[0]), ToString(args[1]))
			}
			return nil, in.host.DownloadFile(ToString(firstArg(args)), "")
		case "downloaddata":
			return in.host.DownloadData(ToString(firstArg(args)))
		case "openread":
			b, err := in.host.DownloadData(ToString(firstArg(args)))
			if err != nil {
				return nil, err
			}
			return newMemoryStream(b), nil
		case "uploadstring", "uploaddata":
			if len(args) >= 2 {
				return in.host.WebRequest("POST", ToString(args[0]))
			}
		case "dispose", "addheader":
			return nil, nil
		}
	case "System.IO.MemoryStream":
		switch n {
		case "toarray":
			if b, ok := o.Data.(Bytes); ok {
				return b, nil
			}
			return Bytes{}, nil
		case "close", "dispose", "flush", "seek", "setlength":
			return nil, nil
		case "write":
			if len(args) >= 1 {
				b, err := in.castValue("byte[]", args[0])
				if err != nil {
					return nil, err
				}
				cur, _ := o.Data.(Bytes)
				o.Data = append(cur, b.(Bytes)...)
			}
			return nil, nil
		}
	case "System.IO.Compression.DeflateStream", "System.IO.Compression.GZipStream":
		switch n {
		case "close", "dispose", "flush":
			return nil, nil
		case "read":
			return int64(0), nil
		case "copyto":
			if dst, ok := firstArg(args).(*Object); ok && dst.TypeName == "System.IO.MemoryStream" {
				if b, ok := o.Data.(Bytes); ok {
					cur, _ := dst.Data.(Bytes)
					dst.Data = append(cur, b...)
				}
			}
			return nil, nil
		}
	case "System.IO.StreamReader":
		switch n {
		case "readtoend":
			return ToString(o.Data), nil
		case "readline":
			s := ToString(o.Data)
			if i := strings.IndexByte(s, '\n'); i >= 0 {
				o.Data = s[i+1:]
				return strings.TrimRight(s[:i], "\r"), nil
			}
			o.Data = ""
			return s, nil
		case "close", "dispose":
			return nil, nil
		}
	case "System.Text.Encoding":
		variant := ToString(o.Data)
		switch n {
		case "getstring":
			b, err := in.castValue("byte[]", firstArg(args))
			if err != nil {
				return nil, err
			}
			return decodeBytes(variant, b.(Bytes)), nil
		case "getbytes":
			return encodeString(variant, ToString(firstArg(args))), nil
		case "getchars":
			b, err := in.castValue("byte[]", firstArg(args))
			if err != nil {
				return nil, err
			}
			s := decodeBytes(variant, b.(Bytes))
			out := make([]any, 0, len(s))
			for _, r := range s {
				out = append(out, Char(r))
			}
			return out, nil
		}
	case "System.Management.Automation.CommandInvocationIntrinsics":
		switch n {
		case "newscriptblock":
			return in.castValue("scriptblock", ToString(firstArg(args)))
		case "invokescript":
			return in.invokeNestedScript(ToString(firstArg(args)))
		case "expandstring":
			return ToString(firstArg(args)), nil
		case "getcommand", "getcmdlet":
			name := ToString(firstArg(args))
			c := NewObject("System.Management.Automation.CmdletInfo")
			c.Props["name"] = name
			return c, nil
		}
	case "System.Random":
		switch n {
		case "next":
			in.markImpure("nondeterminism: System.Random.Next")
			state, _ := o.Data.(int64)
			state = state*6364136223846793005 + 1442695040888963407
			o.Data = state
			v := (state >> 33) & 0x7FFFFFFF
			switch len(args) {
			case 1:
				maxV, err := ToInt(args[0])
				if err != nil || maxV <= 0 {
					return int64(0), nil
				}
				return v % maxV, nil
			case 2:
				minV, err1 := ToInt(args[0])
				maxV, err2 := ToInt(args[1])
				if err1 != nil || err2 != nil || maxV <= minV {
					return minV, nil
				}
				return minV + v%(maxV-minV), nil
			default:
				return v, nil
			}
		}
	case "System.Net.Sockets.TcpClient":
		switch n {
		case "connect":
			hostName := ToString(firstArg(args))
			var port int64
			if len(args) >= 2 {
				port, _ = ToInt(args[1])
			}
			return nil, in.host.TCPConnect(hostName, port)
		case "getstream":
			return NewObject("System.Net.Sockets.NetworkStream"), nil
		case "close", "dispose":
			return nil, nil
		}
	case "System.Diagnostics.Process":
		switch n {
		case "start":
			return nil, in.host.StartProcess(ToString(o.Props["filename"]), nil)
		case "kill", "close", "waitforexit":
			return nil, nil
		}
	}
	// Benign universal no-ops.
	switch n {
	case "dispose", "close":
		return nil, nil
	}
	return nil, fmt.Errorf("%w: method %q on %s", ErrUnsupported, n, o.TypeName)
}

// invokeNestedScript evaluates a script string (InvokeScript,
// Invoke-Expression) with the depth guard.
func (in *Interp) invokeNestedScript(src string) (any, error) {
	if in.opts.EngineScriptHook != nil {
		// A replay from the evaluation cache would not re-fire the hook.
		in.markImpure("engine-script hook observed code")
		in.opts.EngineScriptHook(src)
	}
	if in.depth >= in.opts.MaxDepth {
		return nil, ErrBudget
	}
	in.depth++
	defer func() { in.depth-- }()
	out, err := in.EvalSnippet(src)
	if err != nil {
		return nil, err
	}
	return Unwrap(out), nil
}

// decodeBytes decodes a byte slice using a simulated .NET encoding.
func decodeBytes(variant string, b Bytes) string {
	switch variant {
	case "unicode":
		u16 := make([]uint16, 0, len(b)/2)
		for i := 0; i+1 < len(b); i += 2 {
			u16 = append(u16, uint16(b[i])|uint16(b[i+1])<<8)
		}
		return string(utf16.Decode(u16))
	case "bigendianunicode":
		u16 := make([]uint16, 0, len(b)/2)
		for i := 0; i+1 < len(b); i += 2 {
			u16 = append(u16, uint16(b[i])<<8|uint16(b[i+1]))
		}
		return string(utf16.Decode(u16))
	case "utf32":
		runes := make([]rune, 0, len(b)/4)
		for i := 0; i+3 < len(b); i += 4 {
			runes = append(runes, rune(uint32(b[i])|uint32(b[i+1])<<8|uint32(b[i+2])<<16|uint32(b[i+3])<<24))
		}
		return string(runes)
	case "ascii":
		out := make([]byte, len(b))
		for i, c := range b {
			out[i] = c & 0x7F
		}
		return string(out)
	default: // utf8, default, utf7
		return string(b)
	}
}

// encodeString encodes a string using a simulated .NET encoding.
func encodeString(variant, s string) Bytes {
	switch variant {
	case "unicode":
		u16 := utf16.Encode([]rune(s))
		out := make(Bytes, 0, len(u16)*2)
		for _, u := range u16 {
			out = append(out, byte(u), byte(u>>8))
		}
		return out
	case "bigendianunicode":
		u16 := utf16.Encode([]rune(s))
		out := make(Bytes, 0, len(u16)*2)
		for _, u := range u16 {
			out = append(out, byte(u>>8), byte(u))
		}
		return out
	case "utf32":
		out := make(Bytes, 0, len(s)*4)
		for _, r := range s {
			out = append(out, byte(r), byte(r>>8), byte(r>>16), byte(r>>24))
		}
		return out
	case "ascii":
		out := make(Bytes, 0, len(s))
		for _, r := range s {
			if r > 127 {
				out = append(out, '?')
			} else {
				out = append(out, byte(r))
			}
		}
		return out
	default:
		return Bytes(s)
	}
}

// decompress inflates data with the given algorithm ("deflate" or
// "gzip"), bounding output size.
func decompress(algorithm string, data Bytes, maxLen int) (Bytes, error) {
	var r io.Reader
	switch algorithm {
	case "gzip":
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("psinterp: gzip: %v", err)
		}
		defer gz.Close()
		r = gz
	default:
		fr := flate.NewReader(bytes.NewReader(data))
		defer fr.Close()
		r = fr
	}
	out, err := io.ReadAll(io.LimitReader(r, int64(maxLen)+1))
	if err != nil {
		return nil, fmt.Errorf("psinterp: decompress: %v", err)
	}
	if len(out) > maxLen {
		return nil, ErrBudget
	}
	return Bytes(out), nil
}

// compress deflate- or gzip-compresses data.
func compress(algorithm string, data Bytes) (Bytes, error) {
	var buf bytes.Buffer
	var w io.WriteCloser
	switch algorithm {
	case "gzip":
		w = gzip.NewWriter(&buf)
	default:
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		w = fw
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return Bytes(buf.Bytes()), nil
}
