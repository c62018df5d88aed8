package psinterp

import (
	"fmt"
	"strings"

	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psnames"
)

// commandArg is one evaluated command argument.
type commandArg struct {
	isParam bool
	param   string // includes the leading dash, lower-cased
	value   any
}

// runCommand resolves and executes one pipeline command element.
func (in *Interp) runCommand(cmd *psast.Command, input []any, sc *scope) ([]any, error) {
	name, sbv, err := in.resolveCommandName(cmd, sc)
	if err != nil {
		return nil, err
	}
	args, err := in.evalCommandArgs(cmd.Args, sc)
	if err != nil {
		return nil, err
	}
	// The overriding-function hook only binds to literally spelled
	// command names — the textual substitution the real tools perform.
	// Dynamically constructed invocations (&('iex'), .($pshome[4]+...))
	// bypass the override, which is one reason the paper finds the
	// technique limited (§IV-C2).
	if in.opts.IEXHook != nil && sbv == nil {
		if _, isLiteral := cmd.Name.(*psast.StringConstant); isLiteral {
			if NormalizeCommandName(name) == "invoke-expression" {
				code := ""
				if pos := positionals(args); len(pos) > 0 {
					code = ToString(pos[0])
				} else if len(input) > 0 {
					code = ToString(Unwrap(input))
				}
				if strings.TrimSpace(code) != "" {
					in.markImpure("iex hook observed code")
					in.opts.IEXHook(code)
				}
				return nil, nil
			}
		}
	}
	if sbv != nil {
		var posArgs []any
		for _, a := range args {
			if !a.isParam {
				posArgs = append(posArgs, a.value)
			}
		}
		return in.InvokeScriptBlock(sbv, posArgs, input, sc)
	}
	return in.dispatchCommand(name, args, input, sc)
}

// resolveCommandName evaluates the command-name expression. It returns
// either a name string or a script block to invoke.
func (in *Interp) resolveCommandName(cmd *psast.Command, sc *scope) (string, *ScriptBlockValue, error) {
	switch n := cmd.Name.(type) {
	case *psast.StringConstant:
		return n.Value, nil, nil
	default:
		v, err := in.evalExpr(cmd.Name, sc)
		if err != nil {
			return "", nil, err
		}
		if sb, ok := v.(*ScriptBlockValue); ok {
			return "", sb, nil
		}
		return ToString(v), nil, nil
	}
}

func (in *Interp) evalCommandArgs(nodes []psast.Node, sc *scope) ([]commandArg, error) {
	var args []commandArg
	for _, node := range nodes {
		switch a := node.(type) {
		case *psast.CommandParameter:
			arg := commandArg{isParam: true, param: strings.ToLower(a.Name)}
			if a.Argument != nil {
				v, err := in.evalExpr(a.Argument, sc)
				if err != nil {
					return nil, err
				}
				arg.value = v
			}
			args = append(args, arg)
		default:
			v, err := in.evalExpr(node, sc)
			if err != nil {
				return nil, err
			}
			args = append(args, commandArg{value: v})
		}
	}
	return args, nil
}

// NormalizeCommandName lower-cases a command name and strips path
// prefixes and the .exe suffix so powershell.exe, .\powershell and
// C:\...\powershell.exe all resolve alike.
func NormalizeCommandName(name string) string {
	n := strings.ToLower(strings.Trim(name, "\"' "))
	if i := strings.LastIndexAny(n, "\\/"); i >= 0 {
		n = n[i+1:]
	}
	n = strings.TrimSuffix(n, ".exe")
	if alias := psnames.ResolveAlias(n); alias != "" {
		n = strings.ToLower(alias)
	}
	return n
}

func (in *Interp) dispatchCommand(rawName string, args []commandArg, input []any, sc *scope) ([]any, error) {
	name := NormalizeCommandName(rawName)
	if in.opts.Blocklist[name] || in.opts.Blocklist[strings.ToLower(rawName)] {
		return nil, fmt.Errorf("%w: %s", ErrBlocked, rawName)
	}
	if fn, ok := in.funcs[name]; ok {
		return in.callFunction(fn, args, input, sc)
	}
	if fn, ok := in.funcs[strings.ToLower(rawName)]; ok {
		return in.callFunction(fn, args, input, sc)
	}
	// A variable holding a script block can be named as a command via
	// & 'name' only for real command names; skip that case.
	if builtin, ok := builtins[name]; ok {
		// Commands outside the pure-static whitelist may touch the
		// console, the simulated filesystem or nondeterminism sources;
		// invoking one disqualifies the run from the evaluation cache.
		if !pureBuiltins[name] {
			in.markImpure("command: " + name)
		}
		return builtin(in, args, input, sc)
	}
	in.markImpure("command: " + name)
	switch name {
	case "powershell", "pwsh":
		return in.runPowerShell(args, input)
	case "cmd":
		return in.runCmdExe(args)
	case "wscript", "cscript", "mshta", "rundll32", "regsvr32", "certutil",
		"bitsadmin", "schtasks", "msbuild", "installutil", "notepad", "calc",
		"whoami", "ipconfig", "systeminfo", "tasklist", "ping":
		return nil, in.host.StartProcess(name, argStrings(args))
	}
	return nil, fmt.Errorf("%w: unknown command %q", ErrUnsupported, rawName)
}

func argStrings(args []commandArg) []string {
	var out []string
	for _, a := range args {
		if a.isParam {
			out = append(out, a.param)
			if a.value != nil {
				out = append(out, ToString(a.value))
			}
			continue
		}
		out = append(out, ToString(a.value))
	}
	return out
}

// positionals returns the non-parameter argument values.
func positionals(args []commandArg) []any {
	var out []any
	for _, a := range args {
		if !a.isParam {
			out = append(out, a.value)
		}
	}
	return out
}

// paramValue returns the value following a parameter whose name matches
// the prefix rule used by PowerShell's parameter binder, e.g.
// paramValue(args, "encodedcommand") matches -e, -enc, -encodedcommand.
func paramValue(args []commandArg, full string) (any, bool) {
	for i, a := range args {
		if !a.isParam {
			continue
		}
		p := strings.TrimPrefix(a.param, "-")
		if p == "" || !strings.HasPrefix(full, p) {
			continue
		}
		if a.value != nil {
			return a.value, true
		}
		if i+1 < len(args) && !args[i+1].isParam {
			return args[i+1].value, true
		}
		return nil, true
	}
	return nil, false
}

type builtinFunc func(in *Interp, args []commandArg, input []any, sc *scope) ([]any, error)

var builtins map[string]builtinFunc

func init() {
	builtins = map[string]builtinFunc{
		"invoke-expression":        cmdInvokeExpression,
		"foreach-object":           cmdForEachObject,
		"where-object":             cmdWhereObject,
		"select-object":            cmdSelectObject,
		"sort-object":              cmdSortObject,
		"measure-object":           cmdMeasureObject,
		"get-unique":               cmdGetUnique,
		"write-output":             cmdWriteOutput,
		"write-host":               cmdWriteHost,
		"write-error":              cmdSwallow,
		"write-warning":            cmdSwallow,
		"write-verbose":            cmdSwallow,
		"write-debug":              cmdSwallow,
		"out-null":                 cmdOutNull,
		"out-string":               cmdOutString,
		"out-host":                 cmdOutHost,
		"out-default":              cmdOutHost,
		"out-file":                 cmdOutFile,
		"set-content":              cmdSetContent,
		"add-content":              cmdSetContent,
		"new-object":               cmdNewObject,
		"get-variable":             cmdGetVariable,
		"set-variable":             cmdSetVariable,
		"new-variable":             cmdSetVariable,
		"remove-variable":          cmdRemoveVariable,
		"clear-variable":           cmdRemoveVariable,
		"get-command":              cmdGetCommand,
		"get-alias":                cmdGetAlias,
		"get-item":                 cmdGetItem,
		"invoke-command":           cmdInvokeCommand,
		"invoke-webrequest":        cmdInvokeWebRequest,
		"invoke-restmethod":        cmdInvokeWebRequest,
		"invoke-item":              cmdStartProcess,
		"start-process":            cmdStartProcess,
		"start-bitstransfer":       cmdBitsTransfer,
		"start-sleep":              cmdStartSleep,
		"convertto-securestring":   cmdConvertToSecureString,
		"convertfrom-securestring": cmdConvertFromSecureString,
		"split-path":               cmdSplitPath,
		"join-path":                cmdJoinPath,
		"test-path":                cmdTestPath,
		"resolve-path":             cmdResolvePath,
		"get-location":             cmdGetLocation,
		"set-location":             cmdNoop,
		"push-location":            cmdNoop,
		"pop-location":             cmdNoop,
		"get-date":                 cmdGetDate,
		"get-random":               cmdGetRandom,
		"get-process":              cmdGetProcess,
		"get-host":                 cmdGetHost,
		"clear-host":               cmdNoop,
		"import-module":            cmdNoop,
		"get-module":               cmdNoop,
		"set-executionpolicy":      cmdNoop,
		"get-executionpolicy":      cmdGetExecutionPolicy,
		"add-type":                 cmdNoop,
		"select-string":            cmdSelectString,
		"tee-object":               cmdWriteOutput,
		"format-table":             cmdOutHost,
		"format-list":              cmdOutHost,
		"format-wide":              cmdOutHost,
		"read-host":                cmdReadHost,
		"remove-item":              cmdRemoveItem,
		"copy-item":                cmdNoop,
		"move-item":                cmdNoop,
		"new-item":                 cmdNewItem,
		"get-content":              cmdGetContent,
		"get-member":               cmdNoop,
		"group-object":             cmdWriteOutput,
		"compare-object":           cmdNoop,
		"get-culture":              cmdGetCulture,
		"set-alias":                cmdNoop,
		"new-alias":                cmdNoop,
		"get-service":              cmdNoop,
		"get-wmiobject":            cmdNoop,
		"get-ciminstance":          cmdNoop,
		"unblock-file":             cmdNoop,
		"stop-process":             cmdNoop,
	}
}

func cmdInvokeExpression(in *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	var code string
	if pos := positionals(args); len(pos) > 0 {
		code = ToString(pos[0])
	} else if v, ok := paramValue(args, "command"); ok {
		code = ToString(v)
	} else if len(input) > 0 {
		code = ToString(Unwrap(input))
	}
	if strings.TrimSpace(code) == "" {
		return nil, nil
	}
	if in.opts.EngineScriptHook != nil {
		in.markImpure("engine-script hook observed code")
		in.opts.EngineScriptHook(code)
	}
	if in.depth >= in.opts.MaxDepth {
		return nil, ErrBudget
	}
	in.depth++
	defer func() { in.depth-- }()
	return in.EvalSnippet(code)
}

func scriptBlockArgs(args []commandArg) []*ScriptBlockValue {
	var out []*ScriptBlockValue
	for _, a := range args {
		if sb, ok := a.value.(*ScriptBlockValue); ok {
			out = append(out, sb)
		}
	}
	return out
}

func cmdForEachObject(in *Interp, args []commandArg, input []any, sc *scope) ([]any, error) {
	blocks := scriptBlockArgs(args)
	if len(blocks) == 0 {
		// Member-projection form: | ForEach-Object Length.
		if pos := positionals(args); len(pos) > 0 {
			name := ToString(pos[0])
			var out []any
			for _, item := range input {
				v, err := in.getProperty(item, name)
				if err != nil {
					v2, merr := in.invokeMethod(item, name, nil, sc)
					if merr != nil {
						return nil, err
					}
					v = v2
				}
				out = append(out, v)
			}
			return out, nil
		}
		return input, nil
	}
	var begin, process, end *ScriptBlockValue
	switch len(blocks) {
	case 1:
		process = blocks[0]
	case 2:
		begin, process = blocks[0], blocks[1]
	default:
		begin, process, end = blocks[0], blocks[1], blocks[len(blocks)-1]
	}
	if v, ok := paramValue(args, "begin"); ok {
		if sb, ok := v.(*ScriptBlockValue); ok {
			begin = sb
		}
	}
	if v, ok := paramValue(args, "process"); ok {
		if sb, ok := v.(*ScriptBlockValue); ok {
			process = sb
		}
	}
	if v, ok := paramValue(args, "end"); ok {
		if sb, ok := v.(*ScriptBlockValue); ok {
			end = sb
		}
	}
	var out []any
	run := func(sb *ScriptBlockValue) error {
		var err error
		out, err = in.appendScriptBlock(out, sb.Body, sc)
		if stop, err := loopSignal(err); stop {
			return err
		}
		return nil
	}
	if begin != nil {
		if err := run(begin); err != nil {
			return out, err
		}
	}
	if process != nil {
		for _, item := range input {
			if err := in.step(); err != nil {
				return out, err
			}
			sc.set("_", item)
			if err := run(process); err != nil {
				return out, err
			}
		}
	}
	if end != nil {
		if err := run(end); err != nil {
			return out, err
		}
	}
	return out, nil
}

func cmdWhereObject(in *Interp, args []commandArg, input []any, sc *scope) ([]any, error) {
	blocks := scriptBlockArgs(args)
	if len(blocks) == 0 {
		return input, nil
	}
	var out []any
	for _, item := range input {
		if err := in.step(); err != nil {
			return out, err
		}
		sc.set("_", item)
		vals, err := in.appendScriptBlock(nil, blocks[0].Body, sc)
		if err != nil {
			return out, err
		}
		if ToBool(Unwrap(vals)) {
			out = append(out, item)
		}
	}
	return out, nil
}

func cmdSelectObject(in *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	out := input
	if v, ok := paramValue(args, "first"); ok {
		n, err := ToInt(v)
		if err == nil && int(n) < len(out) {
			out = out[:n]
		}
	}
	if v, ok := paramValue(args, "last"); ok {
		n, err := ToInt(v)
		if err == nil && int(n) < len(out) {
			out = out[len(out)-int(n):]
		}
	}
	if v, ok := paramValue(args, "skip"); ok {
		n, err := ToInt(v)
		if err == nil {
			if int(n) >= len(out) {
				out = nil
			} else {
				out = out[n:]
			}
		}
	}
	if v, ok := paramValue(args, "index"); ok {
		var picked []any
		for _, ix := range ToArray(v) {
			n, err := ToInt(ix)
			if err == nil && n >= 0 && int(n) < len(out) {
				picked = append(picked, out[n])
			}
		}
		out = picked
	}
	if v, ok := paramValue(args, "expandproperty"); ok {
		name := ToString(v)
		var picked []any
		for _, item := range out {
			p, err := in.getProperty(item, name)
			if err != nil {
				return nil, err
			}
			picked = append(picked, p)
		}
		out = picked
	}
	if _, ok := paramValue(args, "unique"); ok {
		out = uniqueValues(out)
	}
	return out, nil
}

func uniqueValues(in []any) []any {
	var out []any
	for _, v := range in {
		dup := false
		for _, u := range out {
			if DeepEqualFold(u, v) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

func cmdSortObject(_ *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	_, desc := paramValue(args, "descending")
	out := sortValues(input, desc)
	if _, ok := paramValue(args, "unique"); ok {
		out = uniqueValues(out)
	}
	return out, nil
}

func cmdMeasureObject(_ *Interp, _ []commandArg, input []any, _ *scope) ([]any, error) {
	o := NewObject("Microsoft.PowerShell.Commands.GenericMeasureInfo")
	o.Props["count"] = int64(len(input))
	return []any{o}, nil
}

func cmdGetUnique(_ *Interp, _ []commandArg, input []any, _ *scope) ([]any, error) {
	return uniqueValues(input), nil
}

func cmdWriteOutput(_ *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	out := append([]any(nil), input...)
	for _, a := range args {
		if a.isParam {
			continue
		}
		out = append(out, enumerate(a.value)...)
	}
	return out, nil
}

func cmdWriteHost(in *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	var parts []string
	for _, a := range args {
		if a.isParam {
			// Skip -ForegroundColor and friends along with their value.
			continue
		}
		parts = append(parts, ToString(a.value))
	}
	for _, v := range input {
		parts = append(parts, ToString(v))
	}
	in.writeConsole(strings.Join(parts, " "))
	return nil, nil
}

func cmdSwallow(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	return nil, nil
}

func cmdNoop(_ *Interp, _ []commandArg, input []any, _ *scope) ([]any, error) {
	_ = input
	return nil, nil
}

func cmdOutNull(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	return nil, nil
}

func cmdOutString(_ *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	parts := make([]string, len(input))
	for i, v := range input {
		parts[i] = ToString(v)
	}
	s := strings.Join(parts, "\r\n")
	if _, stream := paramValue(args, "stream"); stream {
		out := make([]any, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return out, nil
	}
	return []any{s + "\r\n"}, nil
}

func cmdOutHost(in *Interp, _ []commandArg, input []any, _ *scope) ([]any, error) {
	for _, v := range input {
		in.writeConsole(ToString(v))
	}
	return nil, nil
}

func cmdOutFile(in *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	path := ""
	if v, ok := paramValue(args, "filepath"); ok {
		path = ToString(v)
	} else if pos := positionals(args); len(pos) > 0 {
		path = ToString(pos[0])
	}
	return nil, in.host.WriteFile(path, ToString(Unwrap(input)))
}

func cmdSetContent(in *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	pos := positionals(args)
	path := ""
	content := ToString(Unwrap(input))
	if v, ok := paramValue(args, "path"); ok {
		path = ToString(v)
	} else if len(pos) > 0 {
		path = ToString(pos[0])
	}
	if v, ok := paramValue(args, "value"); ok {
		content = ToString(v)
	} else if len(pos) > 1 {
		content = ToString(pos[1])
	}
	return nil, in.host.WriteFile(path, content)
}

func cmdGetContent(in *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	path := ""
	if v, ok := paramValue(args, "path"); ok {
		path = ToString(v)
	} else if pos := positionals(args); len(pos) > 0 {
		path = ToString(pos[0])
	}
	return nil, fmt.Errorf("%w: Get-Content %q", ErrUnsupported, path)
}

func cmdRemoveItem(in *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	path := ""
	if v, ok := paramValue(args, "path"); ok {
		path = ToString(v)
	} else if pos := positionals(args); len(pos) > 0 {
		path = ToString(pos[0])
	}
	return nil, in.host.RemoveItem(path)
}

func cmdNewItem(_ *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	o := NewObject("System.IO.FileInfo")
	if pos := positionals(args); len(pos) > 0 {
		o.Props["fullname"] = ToString(pos[0])
		o.Props["name"] = ToString(pos[0])
	}
	return []any{o}, nil
}

func cmdGetVariable(in *Interp, args []commandArg, _ []any, sc *scope) ([]any, error) {
	pos := positionals(args)
	if len(pos) == 0 {
		return nil, nil
	}
	pattern := ToString(pos[0])
	_, valueOnly := paramValue(args, "valueonly")
	names := in.matchVariableNames(pattern, sc)
	var out []any
	for _, name := range names {
		value, _ := in.lookupVariableLenient(name, sc)
		if valueOnly {
			out = append(out, value)
			continue
		}
		o := NewObject("System.Management.Automation.PSVariable")
		o.Props["name"] = name
		o.Props["value"] = value
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("psinterp: variable %q not found", pattern)
	}
	return out, nil
}

// builtinVariableNames are discoverable via Get-Variable wildcards; the
// exact canonical casing matters because obfuscators index into the
// names (e.g. (GV '*mdr*').Name[3,11,2] -join ” is "iex").
var builtinVariableNames = []string{
	"MaximumDriveCount", "MaximumAliasCount", "MaximumErrorCount",
	"MaximumFunctionCount", "MaximumHistoryCount", "MaximumVariableCount",
	"PSHOME", "ShellId", "PSVersionTable", "PWD", "HOME", "PID",
	"ExecutionContext", "VerbosePreference", "ErrorActionPreference",
}

func (in *Interp) matchVariableNames(pattern string, sc *scope) []string {
	if !strings.ContainsAny(pattern, "*?") {
		return []string{pattern}
	}
	// Wildcard enumeration walks Go maps, whose iteration order is
	// deliberately randomized: the result order is nondeterministic.
	in.markImpure("wildcard variable enumeration: " + pattern)
	re, err := compileWildcard(pattern, false)
	if err != nil {
		return nil
	}
	var out []string
	for _, name := range builtinVariableNames {
		if re.MatchString(name) {
			out = append(out, name)
		}
	}
	for cur := sc; cur != nil; cur = cur.parent {
		for name := range cur.vars {
			if re.MatchString(name) {
				out = append(out, name)
			}
		}
	}
	return out
}

// lookupVariableLenient reads a variable without strict-mode errors,
// also resolving the discovery-only builtins.
func (in *Interp) lookupVariableLenient(name string, sc *scope) (any, bool) {
	key := normalizeVarName(name)
	if v, ok := sc.get(key); ok {
		in.noteVarRead(key)
		return v, true
	}
	if v, ok := in.automaticVariable(key); ok {
		return v, true
	}
	switch key {
	case "maximumdrivecount", "maximumaliascount", "maximumerrorcount",
		"maximumfunctioncount", "maximumvariablecount":
		return int64(4096), true
	case "maximumhistorycount":
		return int64(4096), true
	}
	// The not-found answer depends on the absence of context state,
	// which the read-set fingerprint cannot express.
	in.markImpure("undefined variable read: $" + key)
	return nil, false
}

func cmdSetVariable(in *Interp, args []commandArg, _ []any, sc *scope) ([]any, error) {
	pos := positionals(args)
	var name string
	var value any
	if v, ok := paramValue(args, "name"); ok {
		name = ToString(v)
	} else if len(pos) > 0 {
		name = ToString(pos[0])
		pos = pos[1:]
	}
	if v, ok := paramValue(args, "value"); ok {
		value = v
	} else if len(pos) > 0 {
		value = pos[0]
	}
	if name == "" {
		return nil, fmt.Errorf("psinterp: Set-Variable requires a name")
	}
	sc.set(normalizeVarName(name), value)
	return nil, nil
}

func cmdRemoveVariable(_ *Interp, args []commandArg, _ []any, sc *scope) ([]any, error) {
	for _, v := range positionals(args) {
		name := normalizeVarName(ToString(v))
		for cur := sc; cur != nil; cur = cur.parent {
			delete(cur.vars, name)
		}
	}
	return nil, nil
}

func cmdGetCommand(_ *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	pos := positionals(args)
	if len(pos) == 0 {
		return nil, nil
	}
	pattern := ToString(pos[0])
	var names []string
	if strings.ContainsAny(pattern, "*?") {
		re, err := compileWildcard(pattern, false)
		if err != nil {
			return nil, err
		}
		for _, c := range psnames.KnownCmdlets() {
			if re.MatchString(c) {
				names = append(names, c)
			}
		}
	} else if c, ok := psnames.CanonicalCmdlet(pattern); ok {
		names = []string{c}
	}
	var out []any
	for _, name := range names {
		o := NewObject("System.Management.Automation.CmdletInfo")
		o.Props["name"] = name
		out = append(out, o)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("psinterp: command %q not found", pattern)
	}
	return out, nil
}

func cmdGetAlias(_ *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	pos := positionals(args)
	if len(pos) == 0 {
		return nil, nil
	}
	name := ToString(pos[0])
	target := psnames.ResolveAlias(name)
	if target == "" {
		return nil, fmt.Errorf("psinterp: alias %q not found", name)
	}
	o := NewObject("System.Management.Automation.AliasInfo")
	o.Props["name"] = strings.ToLower(name)
	o.Props["definition"] = target
	o.Props["displayname"] = strings.ToLower(name) + " -> " + target
	return []any{o}, nil
}

func cmdGetItem(in *Interp, args []commandArg, _ []any, sc *scope) ([]any, error) {
	pos := positionals(args)
	if len(pos) == 0 {
		return nil, nil
	}
	path := ToString(pos[0])
	lower := strings.ToLower(path)
	switch {
	case strings.HasPrefix(lower, "env:"):
		in.markImpure("env read: " + lower)
		name := strings.TrimPrefix(lower, "env:")
		if v, ok := in.env[name]; ok {
			o := NewObject("System.Collections.DictionaryEntry")
			o.Props["name"] = strings.ToUpper(name)
			o.Props["key"] = strings.ToUpper(name)
			o.Props["value"] = v
			return []any{o}, nil
		}
		return nil, fmt.Errorf("psinterp: env item %q not found", path)
	case strings.HasPrefix(lower, "variable:"):
		name := strings.TrimPrefix(lower, "variable:")
		if v, ok := in.lookupVariableLenient(name, sc); ok {
			o := NewObject("System.Management.Automation.PSVariable")
			o.Props["name"] = name
			o.Props["value"] = v
			return []any{o}, nil
		}
		return nil, fmt.Errorf("psinterp: variable item %q not found", path)
	}
	return nil, fmt.Errorf("%w: Get-Item %q", ErrUnsupported, path)
}

func cmdInvokeCommand(in *Interp, args []commandArg, input []any, sc *scope) ([]any, error) {
	var sb *ScriptBlockValue
	if v, ok := paramValue(args, "scriptblock"); ok {
		sb, _ = v.(*ScriptBlockValue)
	}
	if sb == nil {
		for _, a := range positionals(args) {
			if b, ok := a.(*ScriptBlockValue); ok {
				sb = b
				break
			}
		}
	}
	if sb == nil {
		return nil, fmt.Errorf("%w: Invoke-Command without script block", ErrUnsupported)
	}
	var sbArgs []any
	if v, ok := paramValue(args, "argumentlist"); ok {
		sbArgs = ToArray(v)
	}
	return in.InvokeScriptBlock(sb, sbArgs, input, sc)
}

func cmdInvokeWebRequest(in *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	uri := ""
	if v, ok := paramValue(args, "uri"); ok {
		uri = ToString(v)
	} else if pos := positionals(args); len(pos) > 0 {
		uri = ToString(pos[0])
	}
	method := "GET"
	if v, ok := paramValue(args, "method"); ok {
		method = strings.ToUpper(ToString(v))
	}
	if v, ok := paramValue(args, "outfile"); ok {
		return nil, in.host.DownloadFile(uri, ToString(v))
	}
	body, err := in.host.WebRequest(method, uri)
	if err != nil {
		return nil, err
	}
	o := NewObject("Microsoft.PowerShell.Commands.WebResponseObject")
	o.Props["content"] = body
	o.Props["statuscode"] = int64(200)
	return []any{o}, nil
}

func cmdStartProcess(in *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	name := ""
	if v, ok := paramValue(args, "filepath"); ok {
		name = ToString(v)
	} else if pos := positionals(args); len(pos) > 0 {
		name = ToString(pos[0])
	}
	var procArgs []string
	if v, ok := paramValue(args, "argumentlist"); ok {
		for _, a := range ToArray(v) {
			procArgs = append(procArgs, ToString(a))
		}
	}
	return nil, in.host.StartProcess(name, procArgs)
}

func cmdBitsTransfer(in *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	src := ""
	dst := ""
	if v, ok := paramValue(args, "source"); ok {
		src = ToString(v)
	} else if pos := positionals(args); len(pos) > 0 {
		src = ToString(pos[0])
	}
	if v, ok := paramValue(args, "destination"); ok {
		dst = ToString(v)
	}
	return nil, in.host.DownloadFile(src, dst)
}

func cmdSplitPath(_ *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	pos := positionals(args)
	if len(pos) == 0 {
		return nil, nil
	}
	p := ToString(pos[0])
	if _, leaf := paramValue(args, "leaf"); leaf {
		if i := strings.LastIndexAny(p, "\\/"); i >= 0 {
			return []any{p[i+1:]}, nil
		}
		return []any{p}, nil
	}
	if i := strings.LastIndexAny(p, "\\/"); i >= 0 {
		return []any{p[:i]}, nil
	}
	return []any{""}, nil
}

func cmdJoinPath(_ *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	pos := positionals(args)
	parent := ""
	child := ""
	if v, ok := paramValue(args, "path"); ok {
		parent = ToString(v)
	} else if len(pos) > 0 {
		parent = ToString(pos[0])
		pos = pos[1:]
	}
	if v, ok := paramValue(args, "childpath"); ok {
		child = ToString(v)
	} else if len(pos) > 0 {
		child = ToString(pos[0])
	}
	return []any{strings.TrimRight(parent, "\\/") + "\\" + strings.TrimLeft(child, "\\/")}, nil
}

func cmdTestPath(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	return []any{false}, nil
}

func cmdResolvePath(_ *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	if pos := positionals(args); len(pos) > 0 {
		return []any{ToString(pos[0])}, nil
	}
	return nil, nil
}

func cmdGetLocation(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	o := NewObject("System.Management.Automation.PathInfo")
	o.Props["path"] = "C:\\Users\\user"
	return []any{o}, nil
}

func cmdGetDate(in *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	// Nondeterministic by contract (real PowerShell reads the clock even
	// though the simulation pins it): never cacheable.
	in.markImpure("nondeterminism: get-date")
	// Deterministic timestamp keeps evaluation reproducible.
	if v, ok := paramValue(args, "format"); ok {
		_ = v
		return []any{"2021-01-01"}, nil
	}
	o := NewObject("System.DateTime")
	o.Props["year"] = int64(2021)
	o.Props["month"] = int64(1)
	o.Props["day"] = int64(1)
	o.Props["ticks"] = int64(637450560000000000)
	return []any{o}, nil
}

func cmdGetRandom(in *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	// Nondeterministic by contract (the simulation is seeded by the step
	// counter, but real PowerShell is not): never cacheable.
	in.markImpure("nondeterminism: get-random")
	in.steps += 13
	seed := int64(in.steps)*6364136223846793005 + 1442695040888963407
	v := (seed >> 33) & 0x7FFFFFFF
	pool := input
	if len(pool) == 0 {
		if iv, ok := paramValue(args, "inputobject"); ok {
			pool = ToArray(iv)
		}
	}
	if len(pool) > 0 {
		return []any{pool[v%int64(len(pool))]}, nil
	}
	minV := int64(0)
	maxV := int64(0x7FFFFFFF)
	if mv, ok := paramValue(args, "minimum"); ok {
		if n, err := ToInt(mv); err == nil {
			minV = n
		}
	}
	if mv, ok := paramValue(args, "maximum"); ok {
		if n, err := ToInt(mv); err == nil {
			maxV = n
		}
	}
	if maxV <= minV {
		return []any{minV}, nil
	}
	return []any{minV + v%(maxV-minV)}, nil
}

func cmdGetProcess(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	o := NewObject("System.Diagnostics.Process")
	o.Props["processname"] = "powershell"
	o.Props["id"] = int64(4242)
	return []any{o}, nil
}

func cmdGetHost(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	o := NewObject("System.Management.Automation.Internal.Host.InternalHost")
	o.Props["name"] = "ConsoleHost"
	o.Props["version"] = "5.1.19041.1"
	return []any{o}, nil
}

func cmdGetExecutionPolicy(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	return []any{"Unrestricted"}, nil
}

func cmdGetCulture(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	o := NewObject("System.Globalization.CultureInfo")
	o.Props["name"] = "en-US"
	o.Props["displayname"] = "English (United States)"
	return []any{o}, nil
}

func cmdSelectString(in *Interp, args []commandArg, input []any, _ *scope) ([]any, error) {
	pattern := ""
	if v, ok := paramValue(args, "pattern"); ok {
		pattern = ToString(v)
	} else if pos := positionals(args); len(pos) > 0 {
		pattern = ToString(pos[0])
	}
	re, err := compileRegex(pattern, false)
	if err != nil {
		return nil, err
	}
	var out []any
	for _, item := range input {
		s := ToString(item)
		if re.MatchString(s) {
			out = append(out, s)
		}
	}
	return out, nil
}

func cmdReadHost(_ *Interp, _ []commandArg, _ []any, _ *scope) ([]any, error) {
	return []any{""}, nil
}

func cmdStartSleep(in *Interp, args []commandArg, _ []any, _ *scope) ([]any, error) {
	seconds := 0.0
	if v, ok := paramValue(args, "seconds"); ok {
		if n, err := ToNumber(v); err == nil {
			seconds = toFloat(n)
		}
	} else if v, ok := paramValue(args, "milliseconds"); ok {
		if n, err := ToNumber(v); err == nil {
			seconds = toFloat(n) / 1000
		}
	} else if pos := positionals(args); len(pos) > 0 {
		if n, err := ToNumber(pos[0]); err == nil {
			seconds = toFloat(n)
		}
	}
	in.host.Sleep(seconds)
	return nil, nil
}
