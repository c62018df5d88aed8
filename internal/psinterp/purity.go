package psinterp

import "sort"

// Purity reports whether an evaluation run was pure — deterministic and
// free of observable side effects — together with the exact set of
// preloaded variables it read. The deobfuscator's evaluation cache
// (internal/pipeline.EvalCache) uses the report to decide whether a
// run's output may be replayed for an identical (snippet, read-set)
// pair: only pure runs are cacheable, and the ReadVars list is the
// environment fingerprint half of the cache key.
//
// A run is impure when any of the following happened:
//
//   - a command outside the pure-static whitelist was dispatched
//     (anything that could touch the host, the simulated filesystem,
//     process state, or the console);
//   - a nondeterminism source executed (Get-Random, Get-Date,
//     [guid]::NewGuid, [datetime]::Now, [IO.Path]::GetRandomFileName,
//     System.Random.Next, wildcard Get-Variable enumeration);
//   - the simulated environment was read or written ($env:, [System.
//     Environment] accessors, Get-Item env:), because environment state
//     is external to the preloaded-variable fingerprint;
//   - console output was produced (a replay would not reproduce it);
//   - an IEX/engine-script hook observed code (a replay would not
//     re-fire the hook);
//   - a variable that was neither preloaded nor script-defined was read
//     leniently (the result depends on the *absence* of context the
//     fingerprint cannot express).
type Purity struct {
	// Pure is true when no impurity source executed.
	Pure bool
	// Reason names the first impurity cause, empty when pure.
	Reason string
	// ReadVars lists, sorted, the normalized names of preloaded
	// variables the run read before (possibly) overwriting them.
	ReadVars []string
}

// Purity returns the purity report for everything evaluated so far on
// this interpreter instance.
func (in *Interp) Purity() Purity {
	p := Purity{Pure: in.impureReason == "", Reason: in.impureReason}
	if len(in.readPreloaded) > 0 {
		p.ReadVars = make([]string, 0, len(in.readPreloaded))
		for name := range in.readPreloaded {
			p.ReadVars = append(p.ReadVars, name)
		}
		sort.Strings(p.ReadVars)
	}
	return p
}

// CopyValue returns a deep, unaliased copy of an evaluation output
// value, reporting false for values an evaluation cache must not hold.
// Only immutable scalars and recursively copyable containers qualify;
// reference types whose identity or mutability is observable
// (Hashtable, Object, ScriptBlockValue, SecureString, encodings) are
// rejected so a cached replay can never alias interpreter state.
func CopyValue(v any) (any, bool) {
	switch x := v.(type) {
	case nil:
		return nil, true
	case string, bool, int, int64, float64, Char, TypeValue:
		return x, true
	case Bytes:
		return Bytes(append([]byte(nil), x...)), true
	case []any:
		out := make([]any, len(x))
		for i, e := range x {
			c, ok := CopyValue(e)
			if !ok {
				return nil, false
			}
			out[i] = c
		}
		return out, true
	default:
		return nil, false
	}
}

// ValueSize estimates the retained bytes of an output value for cache
// byte-budget accounting. It intentionally over-counts small values
// (boxing overhead) so the budget errs toward evicting sooner.
func ValueSize(v any) int {
	switch x := v.(type) {
	case string:
		return len(x) + 16
	case Bytes:
		return len(x) + 24
	case []any:
		n := 24
		for _, e := range x {
			n += ValueSize(e)
		}
		return n
	default:
		return 16
	}
}

// markImpure records the first impurity cause. Later causes are
// ignored: one is enough to disqualify the run from caching, and the
// first is the most useful for diagnostics.
func (in *Interp) markImpure(reason string) {
	if in.impureReason == "" {
		in.impureReason = reason
	}
}

// noteVarRead records a successful read of a preloaded variable. Reads
// of script-defined variables are not recorded: their values derive
// from the snippet text, which is already part of the cache key.
func (in *Interp) noteVarRead(name string) {
	if !in.preloaded[name] {
		return
	}
	if in.readPreloaded == nil {
		in.readPreloaded = make(map[string]bool, 4)
	}
	in.readPreloaded[name] = true
}

// pureBuiltins whitelists the builtin commands whose implementations
// are deterministic, host-free and console-free. Dispatching any other
// command marks the run impure. The set intentionally mirrors (and
// slightly extends) the deobfuscator's safe-piece command list: those
// are the commands that reach piece evaluation in practice.
var pureBuiltins = map[string]bool{
	"foreach-object":           true,
	"where-object":             true,
	"select-object":            true,
	"sort-object":              true,
	"measure-object":           true,
	"get-unique":               true,
	"write-output":             true,
	"write-error":              true, // swallowed: deterministic no-op
	"write-warning":            true, // swallowed
	"write-verbose":            true, // swallowed
	"write-debug":              true, // swallowed
	"out-null":                 true,
	"out-string":               true,
	"new-object":               true, // constructors are pure; impure members mark on use
	"get-variable":             true, // reads tracked; wildcard enumeration marks impure
	"get-command":              true, // static table
	"get-alias":                true, // static table
	"invoke-command":           true, // body evaluates through this interpreter
	"invoke-expression":        true, // body evaluates through this interpreter
	"convertto-securestring":   true, // deterministic derived-IV encryption
	"convertfrom-securestring": true,
	"split-path":               true,
	"join-path":                true,
	"select-string":            true,
	"get-location":             true, // fixed simulated path
	"get-culture":              true, // fixed simulated culture
	"get-host":                 true, // fixed simulated host info
	"get-executionpolicy":      true, // fixed value
	"tee-object":               true, // aliased to write-output here
	"group-object":             true, // aliased to write-output here
}

// impurityHost wraps a Host so that every side-effect request marks the
// interpreter impure before being forwarded. Even denied requests mark:
// the *attempt* proves the snippet wanted external state, and a replay
// under a permissive host would behave differently.
type impurityHost struct {
	in   *Interp
	next Host
}

var _ Host = impurityHost{}

func (h impurityHost) WriteHost(text string) {
	h.in.markImpure("host: write-host")
	h.next.WriteHost(text)
}

func (h impurityHost) DownloadString(url string) (string, error) {
	h.in.markImpure("host: download")
	return h.next.DownloadString(url)
}

func (h impurityHost) DownloadData(url string) (Bytes, error) {
	h.in.markImpure("host: download")
	return h.next.DownloadData(url)
}

func (h impurityHost) DownloadFile(url, path string) error {
	h.in.markImpure("host: download")
	return h.next.DownloadFile(url, path)
}

func (h impurityHost) WebRequest(method, url string) (string, error) {
	h.in.markImpure("host: web request")
	return h.next.WebRequest(method, url)
}

func (h impurityHost) TCPConnect(host string, port int64) error {
	h.in.markImpure("host: tcp")
	return h.next.TCPConnect(host, port)
}

func (h impurityHost) DNSResolve(host string) error {
	h.in.markImpure("host: dns")
	return h.next.DNSResolve(host)
}

func (h impurityHost) StartProcess(name string, args []string) error {
	h.in.markImpure("host: process")
	return h.next.StartProcess(name, args)
}

func (h impurityHost) WriteFile(path, content string) error {
	h.in.markImpure("host: file write")
	return h.next.WriteFile(path, content)
}

func (h impurityHost) RemoveItem(path string) error {
	h.in.markImpure("host: file remove")
	return h.next.RemoveItem(path)
}

func (h impurityHost) Sleep(seconds float64) {
	h.in.markImpure("host: sleep")
	h.next.Sleep(seconds)
}
