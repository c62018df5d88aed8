package main

import (
	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/keyinfo"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/sandbox"
	"github.com/invoke-deobfuscation/invokedeob/internal/score"

	invokedeob "github.com/invoke-deobfuscation/invokedeob"
)

// verdict returns why out is a wrong output for in, or "" when it is
// right. The references do not come from the engine: the parser's
// verdict, the sandboxed behaviour of the clean original, and the
// frozen JavaScript goldens. It runs outside the timed phase.
func verdict(in *input, out string) string {
	if in.js {
		if out != in.golden {
			return "differs from the JavaScript golden"
		}
		return ""
	}
	if !invokedeob.ValidSyntax(out) {
		return "does not parse"
	}
	if !sandbox.Consistent(in.behaviour, sandbox.Run(out, sandbox.Options{}).Behavior) {
		return "behaves unlike the clean original"
	}
	return ""
}

// quality accumulates the paper's effectiveness measures over outputs:
// residual obfuscation score and URL recovery.
type quality struct {
	scoreSum              float64
	scripts               int
	urlsFound, urlsInTrue int
}

// add counts out, the output for in.
func (q *quality) add(in *input, out string) {
	q.scoreSum += float64(score.Score(out))
	q.scripts++
	if in.truth != nil {
		q.urlsFound += keyinfo.Matches(keyinfo.Extract(out), in.truth)[keyinfo.KindURL]
		q.urlsInTrue += in.truth.CountKind(keyinfo.KindURL)
	}
}

func (q *quality) set(v map[string]float64) {
	v["residual_score_mean"] = ratio(q.scoreSum, float64(q.scripts))
	v["ioc_recall"] = ratio(float64(q.urlsFound), float64(q.urlsInTrue))
}

// engineRun is the engine's own account of one run, from a library
// Result or a server response.
type engineRun struct {
	Stats     core.Stats          `json:"stats"`
	PassTrace []pipeline.PassStat `json:"pass_trace"`
}

// passNames maps the PowerShell pass names to their metric prefix. The
// JavaScript decode pass has none: its self time counts as
// unattributed, so the metrics still account for the whole run time.
var passNames = map[string]string{
	"token":    "psfront.token",
	"ast":      "psfront.ast",
	"rename":   "psfront.rename",
	"reformat": "psfront.reformat",
}

// setEngineMetrics derives the core, psfront, splice and psinterp
// metrics from the engine's accounts of its runs.
func setEngineMetrics(v map[string]float64, runs []engineRun) {
	ops := float64(len(runs))
	durs := make([]float64, len(runs))
	var total, self float64
	var iters, applied, fallbacks, attempted, recovered, reverts float64
	selfByPass := map[string]float64{}
	for i, r := range runs {
		durs[i] = ms(r.Stats.Duration)
		total += durs[i]
		iters += float64(r.Stats.Iterations)
		applied += float64(r.Stats.SplicesApplied)
		fallbacks += float64(r.Stats.SpliceFallbacks)
		attempted += float64(r.Stats.PiecesAttempted)
		recovered += float64(r.Stats.PiecesRecovered)
		for _, p := range r.PassTrace {
			d := ms(p.SelfDuration)
			self += d
			selfByPass[p.Pass] += d
			if p.Pass == "ast" {
				reverts += float64(p.Reverts)
			}
		}
	}
	v["core.run_ms_p50"] = median(durs)
	v["core.run_ms_mean"] = ratio(total, ops)
	v["core.iterations_per_op"] = ratio(iters, ops)
	v["core.unattributed_frac"] = 1 - ratio(self, total)
	for pass, prefix := range passNames {
		v[prefix+".self_ms_per_op"] = ratio(selfByPass[pass], ops)
	}
	v["psfront.ast.reverts_per_op"] = ratio(reverts, ops)
	v["pipeline.splice.applied_per_op"] = ratio(applied, ops)
	v["pipeline.splice.fallback_ratio"] = ratio(fallbacks, applied+fallbacks)
	v["psinterp.pieces_per_op"] = ratio(attempted, ops)
	v["psinterp.recover_ratio"] = ratio(recovered, attempted)
}

// cacheTally sums the parse- and eval-cache counters of the caches a
// traced phase used.
type cacheTally struct {
	parse pipeline.CacheStats
	eval  pipeline.EvalCacheStats
}

func (t *cacheTally) add(c *pipeline.Cache, e *pipeline.EvalCache) {
	if t == nil || c == nil {
		return
	}
	p := c.Stats()
	t.parse.Hits += p.Hits
	t.parse.Misses += p.Misses
	t.parse.CoalescedWaits += p.CoalescedWaits
	s := e.Stats()
	t.eval.Hits += s.Hits
	t.eval.Misses += s.Misses
	t.eval.Evictions += s.Evictions
}

func (t *cacheTally) set(v map[string]float64, ops int) {
	n := float64(ops)
	v["pipeline.parse.misses_per_op"] = ratio(float64(t.parse.Misses), n)
	v["pipeline.parse.hit_ratio"] = t.parse.HitRate()
	v["pipeline.parse.coalesced_waits"] = float64(t.parse.CoalescedWaits)
	v["pipeline.eval.hit_ratio"] = t.eval.HitRate()
	v["pipeline.eval.misses_per_op"] = ratio(float64(t.eval.Misses), n)
	v["pipeline.eval.evictions_per_op"] = ratio(float64(t.eval.Evictions), n)
}
