package psinterp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
)

// Sentinel errors. Callers use errors.Is to distinguish recoverable
// evaluation failures (skip the piece) from bugs.
var (
	// ErrBudget signals the step budget was exhausted.
	ErrBudget = errors.New("psinterp: execution budget exhausted")
	// ErrBlocked signals a blocklisted command was invoked.
	ErrBlocked = errors.New("psinterp: blocked command")
	// ErrSideEffect signals the host denied a side effect.
	ErrSideEffect = errors.New("psinterp: side effect denied")
	// ErrUnsupported signals an unimplemented language or library
	// feature.
	ErrUnsupported = errors.New("psinterp: unsupported")

	// Envelope sentinels, re-exported from the shared taxonomy so
	// callers of this package need not import internal/limits.

	// ErrDeadline signals the context deadline expired mid-evaluation.
	ErrDeadline = limits.ErrDeadline
	// ErrCanceled signals the evaluation context was canceled.
	ErrCanceled = limits.ErrCanceled
	// ErrMemBudget signals the cumulative allocation budget was
	// exhausted.
	ErrMemBudget = limits.ErrMemBudget
)

// UnknownVariableError reports a read of a variable that is not defined.
type UnknownVariableError struct {
	Name string
}

func (e *UnknownVariableError) Error() string {
	return fmt.Sprintf("psinterp: unknown variable $%s", e.Name)
}

// flowKind classifies non-local control flow.
type flowKind int

const (
	flowReturn flowKind = iota + 1
	flowBreak
	flowContinue
	flowExit
	flowThrow
)

// flowSignal is the internal error used for return/break/continue/exit/
// throw propagation.
type flowSignal struct {
	kind  flowKind
	value any
}

func (f *flowSignal) Error() string { return "psinterp: flow signal" }

// TypeValue is the value of a bare [type] literal.
type TypeValue struct {
	Name string
}

func (t TypeValue) String() string { return t.Name }

// Options configures an interpreter instance.
type Options struct {
	// Ctx, when non-nil, bounds evaluation by wall clock: the
	// interpreter observes cancellation and deadlines on the
	// step-counter hot path (amortized, every stepCheckInterval steps)
	// and aborts with ErrDeadline / ErrCanceled. Nil means unbounded.
	Ctx context.Context
	// MaxSteps bounds evaluation work. Zero means the default (2e6).
	MaxSteps int
	// MaxDepth bounds call/IEX nesting. Zero means the default (64).
	MaxDepth int
	// MaxStringLen bounds produced strings. Zero means default (8 MiB).
	MaxStringLen int
	// MaxAllocBytes bounds the *cumulative* bytes materialized across
	// the whole evaluation (string concat/multiply, -join, -replace,
	// format, decoded payloads), so many individually-legal strings
	// cannot add up to an OOM. Zero means default (64 MiB).
	MaxAllocBytes int64
	// StrictVars makes reads of undefined variables an error instead of
	// nil. The deobfuscator uses strict mode so unknown context aborts
	// recovery instead of producing wrong results.
	StrictVars bool
	// Host mediates side effects. Nil means DenyHost.
	Host Host
	// Blocklist lists lower-cased command names that must not execute
	// (the paper's irrelevant-command blocklist).
	Blocklist map[string]bool
	// Env overrides entries of the simulated Windows environment.
	Env map[string]string
	// IEXHook, when non-nil, intercepts Invoke-Expression and
	// powershell -EncodedCommand payloads instead of executing them.
	// This models the "overriding function" technique of PSDecode,
	// PowerDrive and PowerDecode.
	IEXHook func(code string)
	// EngineScriptHook, when non-nil, observes every script string
	// supplied to the scripting engine (Invoke-Expression in any
	// spelling, InvokeScript, nested powershell) WITHOUT suppressing
	// execution. This models AMSI's vantage point (paper §V-B).
	EngineScriptHook func(code string)
}

// Interp evaluates PowerShell ASTs.
type Interp struct {
	opts   Options
	host   Host
	steps  int
	depth  int
	global *scope
	// env holds the simulated Windows environment. It initially aliases
	// the read-only sharedDefaultEnv; envOwned tracks whether it has
	// been cloned for this interpreter (see setEnv).
	env      map[string]string
	envOwned bool
	// funcs maps lower-cased names of user-defined functions; allocated
	// lazily because most evaluated pieces define none.
	funcs   map[string]*psast.FunctionDefinition
	console strings.Builder
	// lastMatches holds capture groups of the most recent -match.
	lastMatches *Hashtable
	// allocBytes is the cumulative allocation account charged against
	// opts.MaxAllocBytes.
	allocBytes int64
	// exprDepth guards AST-recursion depth in evalExpr independently of
	// the call-nesting depth guard, so a deeply nested expression tree
	// cannot exhaust the goroutine stack. peakDepth is the deepest it
	// has been, which a Record keeps.
	exprDepth int
	peakDepth int
	// replayed counts the steps charged by replaying Records rather
	// than executed; rec is the record of the node the run marked for
	// recording, valid when recOK (see Record).
	replayed int
	rec      Record
	recOK    bool
	// deadline caches the context deadline for cheap amortized checks.
	deadline    time.Time
	hasDeadline bool

	// Purity tracking (see Purity): preloaded names the caller defined
	// via SetVar before evaluation, the subset actually read, and the
	// first impurity cause (empty while the run is still pure).
	preloaded     map[string]bool
	readPreloaded map[string]bool
	impureReason  string
}

// New returns an interpreter with the given options.
func New(opts Options) *Interp {
	in := &Interp{global: newScope(nil)}
	in.reset(opts)
	return in
}

// reset reinitializes the interpreter for a new evaluation under opts,
// reusing already-allocated maps (global scope, purity sets) where
// possible. It restores exactly the state New establishes, so a pooled
// interpreter is indistinguishable from a fresh one.
func (in *Interp) reset(opts Options) {
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 2_000_000
	}
	if opts.MaxDepth == 0 {
		opts.MaxDepth = 64
	}
	if opts.MaxStringLen == 0 {
		opts.MaxStringLen = 8 << 20
	}
	if opts.MaxAllocBytes == 0 {
		opts.MaxAllocBytes = 64 << 20
	}
	host := opts.Host
	if host == nil {
		host = DenyHost{}
	}
	in.opts = opts
	// Every host call is a side effect: route them through the
	// impurity-marking wrapper so purity tracking has a single choke
	// point for the whole Host surface.
	in.host = impurityHost{in: in, next: host}
	in.steps = 0
	in.depth = 0
	if in.global == nil {
		in.global = newScope(nil)
	}
	in.global.parent = nil
	clear(in.global.vars)
	in.env = sharedDefaultEnv
	in.envOwned = false
	in.funcs = nil
	in.console.Reset()
	in.lastMatches = nil
	in.allocBytes = 0
	in.exprDepth = 0
	in.peakDepth = 0
	in.replayed = 0
	in.rec = Record{}
	in.recOK = false
	in.deadline = time.Time{}
	in.hasDeadline = false
	clear(in.preloaded)
	clear(in.readPreloaded)
	in.impureReason = ""
	if opts.Ctx != nil {
		if dl, ok := opts.Ctx.Deadline(); ok {
			in.deadline = dl
			in.hasDeadline = true
		}
	}
	for k, v := range opts.Env {
		in.setEnv(strings.ToLower(k), v)
	}
}

// Console returns everything written via Write-Host/Write-Output during
// evaluation.
func (in *Interp) Console() string { return in.console.String() }

// Steps returns the evaluation steps taken so far, the count MaxSteps
// bounds. It includes the steps replayed Records charged.
func (in *Interp) Steps() int { return in.steps }

// StepsReplayed returns the part of Steps that replayed Records charged
// without executing them.
func (in *Interp) StepsReplayed() int { return in.replayed }

// SetVar defines a variable in the global scope. Variables defined
// this way — before evaluation, by the embedding caller — are the
// "preloaded" set whose reads the purity tracker records for the
// evaluation cache's environment fingerprint.
func (in *Interp) SetVar(name string, v any) {
	n := normalizeVarName(name)
	if in.preloaded == nil {
		in.preloaded = make(map[string]bool, 8)
	}
	in.preloaded[n] = true
	in.global.set(n, v)
}

// GetVar reads a variable from the global scope chain.
func (in *Interp) GetVar(name string) (any, bool) {
	return in.global.get(normalizeVarName(name))
}

// EvalSnippet parses and evaluates a source fragment, returning the
// pipeline output values.
func (in *Interp) EvalSnippet(src string) ([]any, error) {
	sb, err := psparser.Parse(src)
	if err != nil {
		return nil, err
	}
	return in.EvalScript(sb)
}

// EvalScript evaluates a parsed script block in the global scope. It is
// a panic-isolation barrier: a latent bug anywhere in the interpreter
// surfaces as a *limits.PanicError instead of crashing the process.
// evalExpr does not unwind its depth count on a panic, so the barrier
// puts back the depth it was entered at: an IEX payload evaluates
// through a nested barrier and the outer evaluation then continues.
func (in *Interp) EvalScript(sb *psast.ScriptBlock) (out []any, err error) {
	defer func(depth int) { in.exprDepth = depth }(in.exprDepth)
	defer limits.Recover("eval", &err)
	return in.evalScript(sb)
}

func (in *Interp) evalScript(sb *psast.ScriptBlock) ([]any, error) {
	out, err := in.appendScriptBlock(nil, sb, in.global)
	var fs *flowSignal
	if errors.As(err, &fs) {
		switch fs.kind {
		case flowExit, flowReturn:
			return out, nil
		case flowThrow:
			return out, fmt.Errorf("psinterp: uncaught throw: %v", ToString(fs.value))
		default:
			return out, nil
		}
	}
	return out, err
}

// appendScriptBlock evaluates a script block's statements in sc and
// appends their output to out.
func (in *Interp) appendScriptBlock(out []any, sb *psast.ScriptBlock, sc *scope) ([]any, error) {
	if sb == nil || sb.Body == nil {
		return out, nil
	}
	return in.appendStatements(out, sb.Body.Statements, sc)
}

// stepCheckInterval amortizes the wall-clock deadline check: the
// context/deadline is consulted once every stepCheckInterval steps so
// the fast path stays a counter increment plus one branch. Must be a
// power of two.
const stepCheckInterval = 1 << 10

func (in *Interp) step() error {
	in.steps++
	if in.steps > in.opts.MaxSteps {
		return ErrBudget
	}
	if in.steps&(stepCheckInterval-1) == 0 {
		return in.checkContext()
	}
	return nil
}

// checkContext maps context expiry onto the envelope taxonomy. It is
// called off the hot path (amortized from step, and directly before
// expensive one-shot operations such as regex compilation or payload
// decoding).
func (in *Interp) checkContext() error {
	if in.hasDeadline && time.Now().After(in.deadline) {
		return ErrDeadline
	}
	if in.opts.Ctx != nil {
		if err := in.opts.Ctx.Err(); err != nil {
			return limits.FromContext(err)
		}
	}
	return nil
}

// charge accounts n bytes of materialized data against the cumulative
// allocation budget, failing with ErrMemBudget when the envelope is
// exceeded. Individual strings are additionally capped by MaxStringLen
// at their construction sites.
func (in *Interp) charge(n int) error {
	if n <= 0 {
		return nil
	}
	in.allocBytes += int64(n)
	if in.allocBytes > in.opts.MaxAllocBytes {
		return ErrMemBudget
	}
	return nil
}

// chargeString is charge specialized for freshly produced strings: it
// enforces both the per-string cap and the cumulative budget.
func (in *Interp) chargeString(n int) error {
	if n > in.opts.MaxStringLen {
		return ErrBudget
	}
	return in.charge(n)
}

// scope is one level of the dynamic scope chain.
type scope struct {
	vars   map[string]any
	parent *scope
}

// newScope creates a child scope. The variable map is allocated
// lazily on first write: function calls, script blocks and loop bodies
// routinely open scopes that never define a variable, and piece
// evaluation opens thousands of interpreters whose global scope holds
// only a few preloaded names.
func newScope(parent *scope) *scope {
	return &scope{parent: parent}
}

func (s *scope) get(name string) (any, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if v, ok := cur.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// set updates the variable where it is defined, creating it in the
// current scope otherwise.
func (s *scope) set(name string, v any) {
	for cur := s; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			cur.vars[name] = v
			return
		}
	}
	s.define(name, v)
}

// define writes name into this scope (not the chain), materializing
// the lazy variable map on first use.
func (s *scope) define(name string, v any) {
	if s.vars == nil {
		s.vars = make(map[string]any, 4)
	}
	s.vars[name] = v
}

// appendStatements evaluates stmts in order and appends their output
// to out, stopping at the first error with the output so far.
func (in *Interp) appendStatements(out []any, stmts []psast.Node, sc *scope) ([]any, error) {
	for _, st := range stmts {
		// A pipeline of one expression, the common statement, appends
		// its value directly. It takes the same two steps as the
		// evalStatement -> evalPipeline -> evalExpr route.
		if p, ok := st.(*psast.Pipeline); ok && len(p.Elements) == 1 {
			if ce, ok := p.Elements[0].(*psast.CommandExpression); ok {
				if err := in.step(); err != nil {
					return out, err
				}
				v, err := in.evalExpr(ce.Expression, sc)
				if err != nil {
					return out, err
				}
				out = appendValue(out, v)
				continue
			}
		}
		vals, err := in.evalStatement(st, sc)
		out = append(out, vals...)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (in *Interp) evalStatement(node psast.Node, sc *scope) ([]any, error) {
	if err := in.step(); err != nil {
		return nil, err
	}
	return in.evalStatementNode(node, sc)
}

// evalStatementNode evaluates a statement whose step evalStatement has
// charged.
func (in *Interp) evalStatementNode(node psast.Node, sc *scope) ([]any, error) {
	switch n := node.(type) {
	case *psast.Pipeline:
		return in.evalPipeline(n, sc)
	case *psast.Assignment:
		_, err := in.evalAssignment(n, sc)
		return nil, err
	case *psast.If:
		return in.evalIf(n, sc)
	case *psast.While:
		return in.evalWhile(n, sc)
	case *psast.DoLoop:
		return in.evalDo(n, sc)
	case *psast.For:
		return in.evalFor(n, sc)
	case *psast.ForEach:
		return in.evalForEach(n, sc)
	case *psast.Switch:
		return in.evalSwitch(n, sc)
	case *psast.Try:
		return in.evalTry(n, sc)
	case *psast.FunctionDefinition:
		if in.funcs == nil {
			in.funcs = make(map[string]*psast.FunctionDefinition, 4)
		}
		in.funcs[strings.ToLower(n.Name)] = n
		return nil, nil
	case *psast.FlowStatement:
		return in.evalFlow(n, sc)
	case *psast.StatementBlock:
		return in.appendStatements(nil, n.Statements, sc)
	case *psast.ParamBlock:
		return nil, nil
	case *psast.CommandExpression:
		v, err := in.evalExpr(n.Expression, sc)
		if err != nil {
			return nil, err
		}
		return enumerate(v), nil
	case *psast.Evaluated:
		return in.evaluatedStatement(n, sc)
	default:
		return nil, fmt.Errorf("%w: statement %s", ErrUnsupported, node.Kind())
	}
}

// enumerate converts an expression value to pipeline output values.
func enumerate(v any) []any {
	switch x := v.(type) {
	case nil:
		return nil
	case []any:
		return x
	default:
		return []any{v}
	}
}

// appendValue appends the pipeline output of an expression value to
// out, as append(out, enumerate(v)...) does: an array's elements are
// copied, never aliased.
func appendValue(out []any, v any) []any {
	switch x := v.(type) {
	case nil:
		return out
	case []any:
		return append(out, x...)
	default:
		return append(out, v)
	}
}

func (in *Interp) evalPipeline(p *psast.Pipeline, sc *scope) ([]any, error) {
	var input []any
	for i, elem := range p.Elements {
		var out []any
		var err error
		switch e := elem.(type) {
		case *psast.Command:
			out, err = in.runCommand(e, input, sc)
		case *psast.CommandExpression:
			var v any
			v, err = in.evalExpr(e.Expression, sc)
			if err == nil {
				out = enumerate(v)
				if i > 0 {
					// An expression mid-pipeline replaces the stream.
					_ = input
				}
			}
		default:
			err = fmt.Errorf("%w: pipeline element %s", ErrUnsupported, elem.Kind())
		}
		if err != nil {
			return nil, err
		}
		input = out
	}
	return input, nil
}

func (in *Interp) evalAssignment(n *psast.Assignment, sc *scope) (any, error) {
	value, err := in.evalAssignmentValue(n.Right, sc)
	if err != nil {
		return nil, err
	}
	if n.Operator != "=" {
		old, err := in.evalExpr(n.Left, sc)
		if err != nil {
			return nil, err
		}
		op := strings.TrimSuffix(n.Operator, "=")
		value, err = in.evalBinaryOp(op, old, value)
		if err != nil {
			return nil, err
		}
	}
	if err := in.assignTo(n.Left, value, sc); err != nil {
		return nil, err
	}
	return value, nil
}

// evalAssignmentValue evaluates an assignment RHS, preserving the
// expression value (including empty arrays, which pipeline enumeration
// would collapse to null).
func (in *Interp) evalAssignmentValue(right psast.Node, sc *scope) (any, error) {
	if pipe, ok := right.(*psast.Pipeline); ok && len(pipe.Elements) == 1 {
		if ce, ok := pipe.Elements[0].(*psast.CommandExpression); ok {
			return in.evalExpr(ce.Expression, sc)
		}
	}
	vals, err := in.evalStatement(right, sc)
	if err != nil {
		return nil, err
	}
	return Unwrap(vals), nil
}

// assignTo stores value into an lvalue expression.
func (in *Interp) assignTo(target psast.Node, value any, sc *scope) error {
	switch t := target.(type) {
	case *psast.VariableExpression:
		name := foldName(t.Name)
		if strings.HasPrefix(name, "env:") {
			in.markImpure("env write: " + name)
			in.setEnv(strings.TrimPrefix(name, "env:"), ToString(value))
			return nil
		}
		if strings.HasPrefix(name, "global:") || strings.HasPrefix(name, "script:") {
			in.global.define(stripScope(name), value)
			return nil
		}
		sc.set(stripScope(name), value)
		return nil
	case *psast.ConvertExpression:
		cast, err := in.castValue(t.TypeName, value)
		if err != nil {
			return err
		}
		return in.assignTo(t.Operand, cast, sc)
	case *psast.IndexExpression:
		targetVal, err := in.evalExpr(t.Target, sc)
		if err != nil {
			return err
		}
		idxVal, err := in.evalExpr(t.Index, sc)
		if err != nil {
			return err
		}
		return in.setIndex(targetVal, idxVal, value)
	case *psast.MemberExpression:
		targetVal, err := in.evalExpr(t.Target, sc)
		if err != nil {
			return err
		}
		name, err := in.memberName(t.Member, sc)
		if err != nil {
			return err
		}
		return in.setProperty(targetVal, name, value)
	case *psast.ArrayLiteral:
		vals := ToArray(value)
		for i, el := range t.Elements {
			var v any
			if i < len(vals) {
				v = vals[i]
			}
			if err := in.assignTo(el, v, sc); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("%w: assignment to %s", ErrUnsupported, target.Kind())
}

func (in *Interp) setIndex(target, index, value any) error {
	switch t := target.(type) {
	case []any:
		i, err := ToInt(index)
		if err != nil {
			return err
		}
		if i < 0 {
			i += int64(len(t))
		}
		if i < 0 || i >= int64(len(t)) {
			return fmt.Errorf("psinterp: index %d out of range", i)
		}
		t[i] = value
		return nil
	case Bytes:
		i, err := ToInt(index)
		if err != nil {
			return err
		}
		b, err := ToInt(value)
		if err != nil {
			return err
		}
		if i < 0 {
			i += int64(len(t))
		}
		if i < 0 || i >= int64(len(t)) {
			return fmt.Errorf("psinterp: index %d out of range", i)
		}
		t[i] = byte(b)
		return nil
	case *Hashtable:
		t.Set(ToString(index), value)
		return nil
	}
	return fmt.Errorf("%w: index assignment on %T", ErrUnsupported, target)
}

func (in *Interp) evalIf(n *psast.If, sc *scope) ([]any, error) {
	for _, clause := range n.Clauses {
		cond, err := in.evalCondition(clause.Cond, sc)
		if err != nil {
			return nil, err
		}
		if cond {
			return in.appendStatements(nil, clause.Body.Statements, sc)
		}
	}
	if n.Else != nil {
		return in.appendStatements(nil, n.Else.Statements, sc)
	}
	return nil, nil
}

// evalCondition evaluates a statement used as a condition.
func (in *Interp) evalCondition(cond psast.Node, sc *scope) (bool, error) {
	vals, err := in.evalStatement(cond, sc)
	if err != nil {
		return false, err
	}
	return ToBool(Unwrap(vals)), nil
}

func (in *Interp) evalWhile(n *psast.While, sc *scope) ([]any, error) {
	var out []any
	for {
		if err := in.step(); err != nil {
			return out, err
		}
		cond, err := in.evalCondition(n.Cond, sc)
		if err != nil {
			return out, err
		}
		if !cond {
			return out, nil
		}
		out, err = in.appendStatements(out, n.Body.Statements, sc)
		if stop, err := loopSignal(err); stop {
			return out, err
		}
	}
}

// loopSignal interprets an error inside a loop body: break stops the
// loop, continue proceeds, anything else propagates.
func loopSignal(err error) (stop bool, out error) {
	if err == nil {
		return false, nil
	}
	var fs *flowSignal
	if errors.As(err, &fs) {
		switch fs.kind {
		case flowBreak:
			return true, nil
		case flowContinue:
			return false, nil
		}
	}
	return true, err
}

func (in *Interp) evalDo(n *psast.DoLoop, sc *scope) ([]any, error) {
	var out []any
	for {
		if err := in.step(); err != nil {
			return out, err
		}
		var err error
		out, err = in.appendStatements(out, n.Body.Statements, sc)
		if stop, err := loopSignal(err); stop {
			return out, err
		}
		cond, err := in.evalCondition(n.Cond, sc)
		if err != nil {
			return out, err
		}
		if n.Until {
			cond = !cond
		}
		if !cond {
			return out, nil
		}
	}
}

func (in *Interp) evalFor(n *psast.For, sc *scope) ([]any, error) {
	var out []any
	if n.Init != nil {
		if _, err := in.evalStatement(n.Init, sc); err != nil {
			return nil, err
		}
	}
	for {
		if err := in.step(); err != nil {
			return out, err
		}
		if n.Cond != nil {
			cond, err := in.evalCondition(n.Cond, sc)
			if err != nil {
				return out, err
			}
			if !cond {
				return out, nil
			}
		}
		var err error
		out, err = in.appendStatements(out, n.Body.Statements, sc)
		if stop, err := loopSignal(err); stop {
			return out, err
		}
		if n.Iter != nil {
			if _, err := in.evalStatement(n.Iter, sc); err != nil {
				return out, err
			}
		}
	}
}

func (in *Interp) evalForEach(n *psast.ForEach, sc *scope) ([]any, error) {
	coll, err := in.evalExpr(n.Collection, sc)
	if err != nil {
		return nil, err
	}
	var out []any
	for _, item := range ToArray(coll) {
		if err := in.step(); err != nil {
			return out, err
		}
		sc.set(normalizeVarName(n.Variable.Name), item)
		out, err = in.appendStatements(out, n.Body.Statements, sc)
		if stop, err := loopSignal(err); stop {
			return out, err
		}
	}
	return out, nil
}

func (in *Interp) evalSwitch(n *psast.Switch, sc *scope) ([]any, error) {
	var subject any
	if n.Cond != nil {
		vals, err := in.evalStatement(n.Cond, sc)
		if err != nil {
			return nil, err
		}
		subject = Unwrap(vals)
	}
	var out []any
	matched := false
	for _, item := range ToArray(subject) {
		sc.set("_", item)
		for _, c := range n.Cases {
			pat, err := in.evalExpr(c.Pattern, sc)
			if err != nil {
				return out, err
			}
			// Default switch semantics compare with -eq; wildcard
			// matching requires the -wildcard flag, which obfuscated
			// samples do not use.
			if DeepEqualFold(item, pat) {
				matched = true
				out, err = in.appendStatements(out, c.Body.Statements, sc)
				if stop, err := loopSignal(err); stop {
					return out, err
				}
			}
		}
	}
	if !matched && n.Default != nil {
		var err error
		out, err = in.appendStatements(out, n.Default.Statements, sc)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func (in *Interp) evalTry(n *psast.Try, sc *scope) ([]any, error) {
	out, err := in.appendStatements(nil, n.Body.Statements, sc)
	if err != nil {
		var fs *flowSignal
		isThrow := errors.As(err, &fs) && fs.kind == flowThrow
		isRuntime := !errors.As(err, &fs)
		// Budget and blocked errors always propagate.
		if errors.Is(err, ErrBudget) || errors.Is(err, ErrBlocked) {
			return out, err
		}
		if (isThrow || isRuntime) && len(n.Catches) > 0 {
			sc.set("_", ToString(errValue(err)))
			out, err = in.appendStatements(out, n.Catches[0].Body.Statements, sc)
		}
	}
	if n.Finally != nil {
		var ferr error
		out, ferr = in.appendStatements(out, n.Finally.Statements, sc)
		if err == nil {
			err = ferr
		}
	}
	return out, err
}

func errValue(err error) any {
	var fs *flowSignal
	if errors.As(err, &fs) {
		return fs.value
	}
	return err.Error()
}

func (in *Interp) evalFlow(n *psast.FlowStatement, sc *scope) ([]any, error) {
	switch n.Keyword {
	case "return":
		var value any
		var out []any
		if n.Value != nil {
			vals, err := in.evalStatement(n.Value, sc)
			if err != nil {
				return nil, err
			}
			out = vals
			value = Unwrap(vals)
		}
		return out, &flowSignal{kind: flowReturn, value: value}
	case "break", "continue":
		if n.Label != "" {
			// A labelled break or continue leaves the loop of that label,
			// which may enclose the innermost one; loops here stop at the
			// innermost. Refusing it keeps such a piece from folding.
			return nil, fmt.Errorf("%w: %s to label %q", ErrUnsupported, n.Keyword, n.Label)
		}
		if n.Keyword == "break" {
			return nil, &flowSignal{kind: flowBreak}
		}
		return nil, &flowSignal{kind: flowContinue}
	case "exit":
		return nil, &flowSignal{kind: flowExit}
	case "throw":
		var value any = "ScriptHalted"
		if n.Value != nil {
			vals, err := in.evalStatement(n.Value, sc)
			if err != nil {
				return nil, err
			}
			value = Unwrap(vals)
		}
		return nil, &flowSignal{kind: flowThrow, value: value}
	case "trap":
		return nil, nil
	}
	return nil, fmt.Errorf("%w: flow %q", ErrUnsupported, n.Keyword)
}

// callFunction invokes a user-defined function.
func (in *Interp) callFunction(fn *psast.FunctionDefinition, args []commandArg, input []any, sc *scope) ([]any, error) {
	if in.depth >= in.opts.MaxDepth {
		return nil, ErrBudget
	}
	in.depth++
	defer func() { in.depth-- }()
	fsc := newScope(sc)
	// Collect declared parameters (inline and param block).
	params := fn.Params
	if fn.Body != nil && fn.Body.Params != nil {
		params = append(append([]*psast.Parameter(nil), params...), fn.Body.Params.Parameters...)
	}
	// Defaults first.
	for _, p := range params {
		var def any
		if p.Default != nil {
			v, err := in.evalExpr(p.Default, fsc)
			if err != nil {
				return nil, err
			}
			def = v
		}
		fsc.define(normalizeVarName(p.Name), def)
	}
	var extra []any
	pos := 0
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a.isParam {
			name := strings.ToLower(strings.TrimPrefix(a.param, "-"))
			bound := false
			for _, p := range params {
				if strings.EqualFold(normalizeVarName(p.Name), name) {
					if a.value != nil {
						fsc.define(normalizeVarName(p.Name), a.value)
					} else if i+1 < len(args) && !args[i+1].isParam {
						fsc.define(normalizeVarName(p.Name), args[i+1].value)
						i++
					} else {
						fsc.define(normalizeVarName(p.Name), true)
					}
					bound = true
					break
				}
			}
			if !bound {
				// Unknown switch: ignore.
				continue
			}
			continue
		}
		if pos < len(params) {
			// Positional binding fills parameters that still hold their
			// defaults.
			fsc.define(normalizeVarName(params[pos].Name), a.value)
			pos++
			continue
		}
		extra = append(extra, a.value)
	}
	fsc.define("args", extra)
	if len(input) > 0 {
		fsc.define("input", input)
		fsc.define("_", input[len(input)-1])
	}
	out, err := in.appendScriptBlock(nil, fn.Body, fsc)
	var fs *flowSignal
	if errors.As(err, &fs) && fs.kind == flowReturn {
		if fs.value != nil {
			// Return value already included via output collection.
		}
		err = nil
	}
	return out, err
}

// InvokeScriptBlock runs a script block value with positional arguments
// bound to $args (and $_ left intact in the parent scope).
func (in *Interp) InvokeScriptBlock(sb *ScriptBlockValue, args []any, input []any, sc *scope) ([]any, error) {
	if in.depth >= in.opts.MaxDepth {
		return nil, ErrBudget
	}
	in.depth++
	defer func() { in.depth-- }()
	bsc := newScope(sc)
	bsc.define("args", args)
	if sb.Body != nil && sb.Body.Params != nil {
		for i, p := range sb.Body.Params.Parameters {
			var v any
			if i < len(args) {
				v = args[i]
			} else if p.Default != nil {
				d, err := in.evalExpr(p.Default, bsc)
				if err != nil {
					return nil, err
				}
				v = d
			}
			bsc.define(normalizeVarName(p.Name), v)
		}
	}
	if len(input) > 0 {
		bsc.define("input", input)
	}
	out, err := in.appendScriptBlock(nil, sb.Body, bsc)
	var fs *flowSignal
	if errors.As(err, &fs) && (fs.kind == flowReturn || fs.kind == flowExit) {
		err = nil
	}
	return out, err
}
