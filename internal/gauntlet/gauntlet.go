// Package gauntlet runs the profile-based obfuscation arms race the
// ROADMAP names: every clean corpus sample is obfuscated with every
// profile at every wrapper depth, pushed through the deobfuscation
// engine, scored for residual obfuscation (paper §IV-B2) and verified
// for behavioral equivalence by executing the original and recovered
// scripts in the bounded sandbox and diffing observable output — the
// full ordered event trace plus console text, a stricter check than
// Table IV's network-set comparison. The result is a machine-readable
// gap report whose failures are the standing backlog of engine gaps.
package gauntlet

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	_ "github.com/invoke-deobfuscation/invokedeob/internal/frontends"
	"github.com/invoke-deobfuscation/invokedeob/internal/obfuscate"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
	"github.com/invoke-deobfuscation/invokedeob/internal/sandbox"
	"github.com/invoke-deobfuscation/invokedeob/internal/score"
)

// Config controls one gauntlet run.
type Config struct {
	// Seed drives corpus generation and every per-case obfuscation
	// stack draw; the whole run is deterministic for a given Config.
	Seed int64
	// Samples is the clean corpus size. Zero means 12.
	Samples int
	// Profiles names the obfuscation profiles to run. Nil means all
	// built-in profiles.
	Profiles []string
	// MaxDepth caps wrapper depth globally (each profile also caps its
	// own). Zero means 3.
	MaxDepth int
	// Timeout bounds each deobfuscation and each sandbox execution
	// (the PR 1 envelope). Zero means 10s.
	Timeout time.Duration
	// Jobs bounds concurrent cases. Zero means GOMAXPROCS.
	Jobs int
	// WorstOffenders is how many failing scripts the report keeps
	// verbatim. Zero means 3.
	WorstOffenders int
	// SandboxMaxSteps bounds each sandbox execution. Deeply layered
	// stacks legitimately cost far more interpreter steps than the
	// sandbox's 3e6 default (every wrapper re-decodes the payload
	// character by character), so the gauntlet runs with a larger
	// budget. Zero means 30e6.
	SandboxMaxSteps int
}

func (cfg *Config) applyDefaults() {
	if cfg.Samples <= 0 {
		cfg.Samples = 12
	}
	if len(cfg.Profiles) == 0 {
		cfg.Profiles = obfuscate.ProfileNames()
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 3
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.WorstOffenders <= 0 {
		cfg.WorstOffenders = 3
	}
	if cfg.SandboxMaxSteps <= 0 {
		cfg.SandboxMaxSteps = 30_000_000
	}
}

// caseSpec is one (sample, profile, depth) grid cell.
type caseSpec struct {
	sample  *corpus.Sample
	profile *obfuscate.Profile
	depth   int
}

// caseScripts keeps the verbatim scripts of a case for offender
// reporting without bloating the full report.
type caseScripts struct {
	original   string
	obfuscated string
	recovered  string
}

// caseSeed derives the deterministic obfuscator seed of one grid cell.
func caseSeed(base int64, sample, profile string, depth int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%d", base, sample, profile, depth)
	return int64(h.Sum64())
}

type runner struct {
	cfg        Config
	deob       *core.Deobfuscator
	parseCache *pipeline.Cache
	evalCache  *pipeline.EvalCache
	// originalRuns caches the sandbox behaviour of each clean sample,
	// shared across that sample's profile × depth cells.
	originalRuns map[string]*sandbox.Result
}

// Run executes the gauntlet and assembles the gap report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg.applyDefaults()
	profiles := make([]*obfuscate.Profile, 0, len(cfg.Profiles))
	for _, name := range cfg.Profiles {
		p, ok := obfuscate.GetProfile(name)
		if !ok {
			return nil, fmt.Errorf("gauntlet: unknown profile %q (have %v)", name, obfuscate.ProfileNames())
		}
		profiles = append(profiles, p)
	}
	start := time.Now()
	samples := corpus.Generate(corpus.Config{Seed: cfg.Seed, N: cfg.Samples, PlainFraction: 1})

	r := &runner{
		cfg:          cfg,
		deob:         core.New(core.Options{}),
		parseCache:   pipeline.NewCache(4096, 16<<20),
		evalCache:    core.NewEvalCache(2048, 8<<20),
		originalRuns: make(map[string]*sandbox.Result, len(samples)),
	}
	for _, s := range samples {
		r.originalRuns[s.ID] = r.sandboxRun(ctx, s.Original)
	}

	var specs []caseSpec
	for _, s := range samples {
		for _, p := range profiles {
			for _, depth := range depthsFor(p, cfg.MaxDepth) {
				specs = append(specs, caseSpec{sample: s, profile: p, depth: depth})
			}
		}
	}

	cases := make([]CaseResult, len(specs))
	scripts := make([]caseScripts, len(specs))
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < cfg.Jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				cases[i], scripts[i] = r.runCase(ctx, specs[i])
			}
		}()
	}
	for i := range specs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	rep := assemble(cfg, cases, scripts)
	rep.ElapsedMS = time.Since(start).Milliseconds()
	return rep, ctx.Err()
}

// depthsFor lists the wrapper depths a profile runs at: 0 for
// wrapper-less profiles, 1..min(profile.MaxDepth, cap) otherwise.
func depthsFor(p *obfuscate.Profile, maxDepth int) []int {
	if p.MaxDepth == 0 {
		return []int{0}
	}
	top := p.MaxDepth
	if top > maxDepth {
		top = maxDepth
	}
	depths := make([]int, 0, top)
	for d := 1; d <= top; d++ {
		depths = append(depths, d)
	}
	return depths
}

// sandboxRun executes one script under the envelope.
func (r *runner) sandboxRun(ctx context.Context, src string) *sandbox.Result {
	sctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	defer cancel()
	return sandbox.RunContext(sctx, src, sandbox.Options{MaxSteps: r.cfg.SandboxMaxSteps})
}

// runCase pushes one grid cell through obfuscate → deobfuscate →
// score → behavioral equivalence.
func (r *runner) runCase(ctx context.Context, spec caseSpec) (CaseResult, caseScripts) {
	seed := caseSeed(r.cfg.Seed, spec.sample.ID, spec.profile.Name, spec.depth)
	cr := CaseResult{
		Sample:  spec.sample.ID,
		Family:  string(spec.sample.Family),
		Profile: spec.profile.Name,
		Depth:   spec.depth,
		Seed:    seed,
	}
	sc := caseScripts{original: spec.sample.Original}

	obf, applied, skipped, err := obfuscate.New(seed).ApplyProfile(spec.sample.Original, spec.profile, spec.depth)
	for _, s := range skipped {
		cr.Skipped = append(cr.Skipped, SkipReport{Technique: string(s.Technique), Reason: s.Reason})
	}
	if err != nil {
		cr.Outcome = OutcomeObfError
		cr.Detail = err.Error()
		return cr, sc
	}
	for _, t := range applied {
		cr.Applied = append(cr.Applied, string(t))
	}
	if len(applied) == 0 {
		cr.Outcome = OutcomeObfSkipped
		cr.Detail = "profile stack produced no applicable technique"
		return cr, sc
	}
	sc.obfuscated = obf
	cr.OriginalScore = score.Score(spec.sample.Original)
	cr.ObfuscatedScore = score.Score(obf)

	dctx, cancel := context.WithTimeout(ctx, r.cfg.Timeout)
	res, derr := r.deob.DeobfuscateSharedLang(dctx, obf, "", r.parseCache, r.evalCache)
	cancel()
	if derr != nil {
		cr.Outcome = OutcomeDeobError
		cr.Detail = derr.Error()
		// Nothing recovered: residual is the full obfuscated score.
		cr.ResidualScore = cr.ObfuscatedScore
		cr.ResidualDelta = cr.ResidualScore - cr.OriginalScore
		return cr, sc
	}
	sc.recovered = res.Script
	cr.ResidualScore = score.Score(res.Script)
	cr.ResidualDelta = cr.ResidualScore - cr.OriginalScore

	orig := r.originalRuns[spec.sample.ID]
	rec := r.sandboxRun(ctx, res.Script)
	if eq, detail := equivalent(orig, rec); !eq {
		// Attribute the failure before blaming the engine: if the
		// obfuscated input itself diverges from the clean original and
		// the recovered script reproduces the input's behaviour
		// exactly, the engine preserved the semantics it was given —
		// the defect is upstream (an obfuscator or sandbox-fidelity
		// bug), and counting it against the engine would let generator
		// regressions masquerade as recovery regressions.
		obfRun := r.sandboxRun(ctx, sc.obfuscated)
		if sameBehavior, _ := equivalent(obfRun, rec); sameBehavior {
			cr.Outcome = OutcomeObfDiverged
			cr.Detail = "obfuscated input diverges from the original; recovery preserved the input's behavior (" + detail + ")"
			return cr, sc
		}
		cr.Outcome = OutcomeDiverged
		cr.Detail = detail
		return cr, sc
	}
	cr.Outcome = OutcomePass
	return cr, sc
}

// equivalent diffs observable output: the full ordered event trace and
// the console text. This is deliberately stricter than Table IV's
// network-set comparison — a semantics-preserving recovery must not
// change any recorded behaviour.
func equivalent(a, b *sandbox.Result) (bool, string) {
	ae, be := a.Behavior, b.Behavior
	n := len(ae)
	if len(be) < n {
		n = len(be)
	}
	for i := 0; i < n; i++ {
		if ae[i].String() != be[i].String() {
			return false, fmt.Sprintf("event %d diverged: original %q vs recovered %q", i, ae[i], be[i])
		}
	}
	if len(ae) != len(be) {
		return false, fmt.Sprintf("event count diverged: original %d vs recovered %d", len(ae), len(be))
	}
	if a.Console != b.Console {
		return false, fmt.Sprintf("console diverged: original %q vs recovered %q", clip(a.Console), clip(b.Console))
	}
	return true, ""
}

func clip(s string) string {
	if len(s) > 160 {
		return s[:160] + "..."
	}
	return s
}

// assemble folds case results into the report: per-profile summaries,
// the overall pass rate, and the worst offenders verbatim.
func assemble(cfg Config, cases []CaseResult, scripts []caseScripts) *Report {
	rep := &Report{
		Seed:     cfg.Seed,
		Samples:  cfg.Samples,
		MaxDepth: cfg.MaxDepth,
		Cases:    cases,
	}
	byProfile := map[string]*ProfileSummary{}
	order := []string{}
	for i := range cases {
		c := &cases[i]
		ps := byProfile[c.Profile]
		if ps == nil {
			ps = &ProfileSummary{Profile: c.Profile}
			byProfile[c.Profile] = ps
			order = append(order, c.Profile)
		}
		switch c.Outcome {
		case OutcomeObfSkipped:
			ps.ObfSkipped++
			continue
		case OutcomeObfDiverged:
			ps.ObfDiverged++
			continue
		case OutcomeObfError:
			ps.ObfErrors++
		case OutcomeDeobError:
			ps.DeobErrors++
		case OutcomeDiverged:
			ps.Diverged++
		case OutcomePass:
			ps.Passes++
		}
		ps.Cases++
		ps.sumResidualDelta += c.ResidualDelta
		ps.sumObfScore += c.ObfuscatedScore
	}
	for _, name := range order {
		ps := byProfile[name]
		if ps.Cases > 0 {
			ps.PassRate = float64(ps.Passes) / float64(ps.Cases)
			ps.MeanResidualDelta = float64(ps.sumResidualDelta) / float64(ps.Cases)
			ps.MeanObfuscatedScore = float64(ps.sumObfScore) / float64(ps.Cases)
		}
		rep.TotalCases += ps.Cases
		rep.Passes += ps.Passes
		rep.Profiles = append(rep.Profiles, *ps)
	}
	sort.Slice(rep.Profiles, func(i, j int) bool { return rep.Profiles[i].Profile < rep.Profiles[j].Profile })
	if rep.TotalCases > 0 {
		rep.PassRate = float64(rep.Passes) / float64(rep.TotalCases)
		sum := 0
		for i := range cases {
			switch cases[i].Outcome {
			case OutcomeObfSkipped, OutcomeObfDiverged:
			default:
				sum += cases[i].ResidualDelta
			}
		}
		rep.MeanResidualDelta = float64(sum) / float64(rep.TotalCases)
	}

	// Worst offenders: failing cases by residual delta, scripts kept
	// verbatim so the gap is reproducible from the report alone.
	var failing []int
	for i := range cases {
		switch cases[i].Outcome {
		case OutcomePass, OutcomeObfSkipped:
		default:
			failing = append(failing, i)
		}
	}
	sort.Slice(failing, func(a, b int) bool {
		ca, cb := &cases[failing[a]], &cases[failing[b]]
		if ca.ResidualDelta != cb.ResidualDelta {
			return ca.ResidualDelta > cb.ResidualDelta
		}
		if ca.Sample != cb.Sample {
			return ca.Sample < cb.Sample
		}
		if ca.Profile != cb.Profile {
			return ca.Profile < cb.Profile
		}
		return ca.Depth < cb.Depth
	})
	for _, i := range failing {
		if len(rep.WorstOffenders) >= cfg.WorstOffenders {
			break
		}
		c := &cases[i]
		rep.WorstOffenders = append(rep.WorstOffenders, Offender{
			Sample:        c.Sample,
			Profile:       c.Profile,
			Depth:         c.Depth,
			Outcome:       c.Outcome,
			Detail:        c.Detail,
			ResidualDelta: c.ResidualDelta,
			Original:      scripts[i].original,
			Obfuscated:    scripts[i].obfuscated,
			Recovered:     scripts[i].recovered,
		})
	}
	return rep
}
