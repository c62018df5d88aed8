package psinterp

import (
	"strings"
	"unicode/utf8"
)

// foldName returns strings.ToLower(name) without allocating in the
// cases a decoder repeats once per element. A name with no upper-case
// letter comes back as it is. A mixed-case spelling of one of
// foldedNames comes back as the table's string. Anything else goes
// through strings.ToLower.
func foldName(name string) string {
	upper := false
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return strings.ToLower(name)
		}
		upper = upper || 'A' <= c && c <= 'Z'
	}
	if !upper {
		return name
	}
	var buf [maxFoldedName]byte
	if len(name) > len(buf) {
		return strings.ToLower(name)
	}
	b := buf[:len(name)]
	for i := range b {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b[i] = c
	}
	if s, ok := foldedNames[string(b)]; ok {
		return s
	}
	return strings.ToLower(name)
}

// maxFoldedName bounds the length of the names in foldedNames.
const maxFoldedName = 32

// foldedNames holds the lower-case form of the type and member names
// the obfuscator's decoders and loaders spell in mixed case, such as
// [Convert]::ToInt32 and '...'.Length. It is a fixed table, not a
// cache: a name missing here still folds correctly, it only allocates.
var foldedNames = func() map[string]string {
	names := []string{
		// Types, with and without the System. prefix.
		"array", "byte", "char", "convert", "int", "int32", "math",
		"regex", "scriptblock", "securestring", "string", "text.encoding",
		"system.array", "system.char", "system.convert", "system.math",
		"system.string", "system.text.encoding",
		"io.memorystream", "io.streamreader",
		"io.compression.compressionmode", "io.compression.deflatestream",
		"io.compression.gzipstream", "runtime.interopservices.marshal",
		// Members.
		"ascii", "count", "create", "decompress", "frombase64string",
		"getbytes", "getstring", "invoke", "join", "length",
		"ptrtostringauto", "ptrtostringbstr", "readtoend", "replace",
		"reverse", "securestringtobstr", "split", "substring",
		"tobyte", "tochar", "tochararray", "toint16", "toint32",
		"toint64", "tolower", "tostring", "toupper", "unicode", "utf8",
	}
	m := make(map[string]string, len(names))
	for _, n := range names {
		m[n] = n
	}
	return m
}()

// scopePrefixes are the variable scope qualifiers normalizeVarName
// strips.
var scopePrefixes = [...]string{"global:", "script:", "local:", "private:", "variable:"}

// normalizeVarName lower-cases a variable name and strips scope
// qualifiers (global:, script:, local:, private:, variable:).
func normalizeVarName(name string) string {
	return stripScope(foldName(name))
}

// stripScope removes the scope qualifier from a lower-cased variable
// name. A name without a colon has none.
func stripScope(n string) string {
	if strings.IndexByte(n, ':') < 0 {
		return n
	}
	for _, prefix := range scopePrefixes {
		if strings.HasPrefix(n, prefix) {
			return strings.TrimPrefix(n, prefix)
		}
	}
	return n
}
