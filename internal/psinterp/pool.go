package psinterp

import "sync"

// interpPool recycles interpreter shells — together with their global
// scope map and purity-tracking sets — across piece evaluations. The
// ast phase constructs one interpreter per attempted piece; on hostile
// corpora that is thousands per script, and the allocations (struct,
// scope map, preloaded/read sets) dominated the non-eval cost of a
// piece. Acquire resets a pooled shell to exactly the state New
// establishes, so pooling is invisible to evaluation semantics.
var interpPool = sync.Pool{
	New: func() any { return &Interp{global: newScope(nil)} },
}

// Acquire returns an interpreter initialized for opts, drawing the
// shell from the pool. The caller must Release it after use (and must
// not retain any reference to it afterwards).
func Acquire(opts Options) *Interp {
	in := interpPool.Get().(*Interp)
	in.reset(opts)
	return in
}

// Release returns an interpreter to the pool. References to caller
// values and evaluation products (preloaded variables, decoded
// payloads, console output, a cloned environment) are dropped eagerly
// so an idle pooled shell retains only its empty maps.
func Release(in *Interp) {
	if in == nil {
		return
	}
	clear(in.global.vars)
	clear(in.preloaded)
	clear(in.readPreloaded)
	in.funcs = nil
	in.lastMatches = nil
	in.console.Reset()
	in.env = sharedDefaultEnv
	in.envOwned = false
	in.opts = Options{}
	in.host = nil
	in.impureReason = ""
	in.rec = Record{}
	interpPool.Put(in)
}
