package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"github.com/invoke-deobfuscation/invokedeob/internal/corpus"
	"github.com/invoke-deobfuscation/invokedeob/internal/keyinfo"
	"github.com/invoke-deobfuscation/invokedeob/internal/obfuscate"
	"github.com/invoke-deobfuscation/invokedeob/internal/sandbox"
)

// Inputs come from a fixed plan and the run's seed. The plan is one
// corpus draw with a constant seed: it fixes each script's clean
// original, its ground truth and its technique stack, so the Table I
// mix and the size of every script are the same on every seed. In the
// closed-loop workloads the seed draws the obfuscation itself (split
// points, names, case, keys), so every seed gives different input
// texts; service-open's seed draws its schedule. Drawing the originals
// and stacks from the seed as well made one pass over the same
// 200-script workload take anywhere from 2 to 9 seconds on a 2-core VM,
// which no bound could absorb.
const (
	planSeed = 1
	planSize = 200
	// deepDepth is the wrapper depth of deep-layers.
	deepDepth = 3
	// deepMaxBytes caps a deep-layers input before its outer
	// obfuscation; uncapped, a few stacked binary/octal encodings reach
	// megabytes and a handful of scripts decide the whole run.
	deepMaxBytes = 64 << 10
	// smallBytes is the largest planned script service-open sends, hot
	// or never-seen: popular scripts are small. With never-seen scripts
	// of up to 2 KB, a few took the engine 20-70 ms; two of them at once
	// held both connections, every request queued behind them for
	// ~40 ms, and where that happened in the schedule moved
	// latency_p95_ms by half from run to run.
	smallBytes = 1024
	// hotPS and hotJS size the service-open hot set.
	hotPS, hotJS = 22, 2
	// hotShare is the share of service-open requests drawn from the
	// hot set; the rest are never-seen scripts.
	hotShare = 0.8
	// maxRequests bounds the requests of one service-open run; it spaces
	// the obfuscation seeds of the redraws.
	maxRequests = 1 << 20
)

// maxDraws bounds how often an input is redrawn under another seed.
const maxDraws = 16

// input is one script the engine is given, with the references its
// output is checked against.
type input struct {
	// id names the input's plan entry and obfuscation seed, or its file.
	id  string
	src string
	// lang is the language the request names; empty auto-detects.
	lang string
	// js marks a JavaScript input, checked against golden; a PowerShell
	// output must instead behave like the clean original.
	js        bool
	behaviour sandbox.Behavior
	// truth is the clean original's ground-truth key information.
	truth  *keyinfo.Info
	golden string
}

// plan is the fixed corpus draw with the sandboxed behaviour of each
// clean original.
type plan struct {
	samples   []*corpus.Sample
	behaviour []sandbox.Behavior
}

func loadPlan() (*plan, error) {
	p := &plan{samples: corpus.Generate(corpus.Config{Seed: planSeed, N: planSize})}
	p.behaviour = make([]sandbox.Behavior, len(p.samples))
	err := parallel(len(p.samples), func(i int) error {
		p.behaviour[i] = sandbox.Run(p.samples[i].Original, sandbox.Options{}).Behavior
		return nil
	})
	return p, err
}

// draw obfuscates plan entry e with the stack ts under the first of
// seeds(0), seeds(1), ... that gives a script behaving like the clean
// original in the sandbox and accepted by fresh. The obfuscator can
// break a script (a replace delimiter that also occurs in the payload),
// and such an input would fail whatever the engine does.
func (p *plan) draw(e int, base string, ts []obfuscate.Technique, seeds func(attempt int) int64, fresh func(string) bool) (input, error) {
	s := p.samples[e]
	for attempt := 0; attempt < maxDraws; attempt++ {
		seed := seeds(attempt)
		src, _, err := obfuscate.New(seed).ApplyStack(base, ts)
		if err != nil {
			return input{}, fmt.Errorf("obfuscating %s: %w", s.ID, err)
		}
		if !fresh(src) || !sandbox.Consistent(p.behaviour[e], sandbox.Run(src, sandbox.Options{}).Behavior) {
			continue
		}
		return input{id: fmt.Sprintf("%s/obf%d", s.ID, seed), src: src, behaviour: p.behaviour[e], truth: s.KeyInfo}, nil
	}
	return input{}, fmt.Errorf("no seed among %d gives a working, new obfuscation of %s", maxDraws, s.ID)
}

func anyText(string) bool { return true }

// obfSeed derives the obfuscation seed of the i-th script of a run.
func obfSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// parallel runs f(0..n-1) on GOMAXPROCS goroutines and returns the
// first error.
func parallel(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int, n) // sized to the number of sends
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// wildInputs are the first n plan entries, each obfuscated with its
// planned stack under the run's seed.
func wildInputs(p *plan, seed int64, n int) ([]input, error) {
	out := make([]input, n)
	err := parallel(n, func(i int) error {
		e := i % len(p.samples)
		var err error
		out[i], err = p.draw(e, p.samples[e].Original, p.samples[e].Techniques,
			func(a int) int64 { return obfSeed(seed, a*n+i) }, anyText)
		return err
	})
	return out, err
}

// deepInputs wraps plan originals with the heavy and paranoid profiles
// at depth 3. The stack and everything up to its last wrapper come from
// the plan; the seed draws the outer obfuscation of the wrapper text.
// The decoding work, which dominates, is therefore the same on every
// seed, while the texts differ.
func deepInputs(p *plan, seed int64, n int) ([]input, error) {
	heavy, _ := obfuscate.GetProfile("heavy")
	paranoid, _ := obfuscate.GetProfile("paranoid")
	type candidate struct {
		inner string
		outer []obfuscate.Technique
		ok    bool
	}
	// Draw twice as many candidates as needed, and a few more for tiny
	// runs; the size cap rejects some.
	cands := make([]candidate, 2*n+8)
	err := parallel(len(cands), func(i int) error {
		prof := heavy
		if i%2 == 1 {
			prof = paranoid
		}
		stack := prof.Stack(rand.New(rand.NewSource(planSeed*7919+int64(i))), deepDepth)
		last := -1
		for j, t := range stack {
			if obfuscate.Level(t) == 3 {
				last = j
			}
		}
		inner, _, err := obfuscate.New(planSeed*104729+int64(i)).ApplyStack(p.samples[i%len(p.samples)].Original, stack[:last+1])
		if err != nil {
			return fmt.Errorf("wrapping plan entry %d: %w", i, err)
		}
		cands[i] = candidate{inner: inner, outer: stack[last+1:], ok: len(inner) <= deepMaxBytes}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var picked []int
	for i, c := range cands {
		if c.ok && len(picked) < n {
			picked = append(picked, i)
		}
	}
	if len(picked) < n {
		return nil, fmt.Errorf("only %d of %d deep-layers candidates fit %d bytes", len(picked), n, deepMaxBytes)
	}
	out := make([]input, n)
	err = parallel(n, func(k int) error {
		c := cands[picked[k]]
		var err error
		out[k], err = p.draw(picked[k]%len(p.samples), c.inner, c.outer,
			func(a int) int64 { return obfSeed(seed, a*n+k) }, anyText)
		return err
	})
	return out, err
}

// serviceInputs are service-open's scripts and its request schedule.
type serviceInputs struct {
	// scripts holds the hot set first, then the never-seen scripts of
	// the warm-up, then those of the timed phase.
	scripts []input
	hot     int
	// warm and timed are the request schedules, as indexes into
	// scripts.
	warm, timed []int
}

// newServiceInputs builds the hot set, warmN warm-up requests and a
// timed schedule of rounds rounds of roundN requests. A hot request
// picks a hot script at random; every other request sends a script no
// earlier request sent: a small plan entry obfuscated under a seed of
// its own. Every round sends the same hot scripts in the same places,
// so that each place in a round is timed rounds times.
func newServiceInputs(p *plan, seed int64, root string, warmN, roundN, rounds int) (*serviceInputs, error) {
	var small []int
	for e, s := range p.samples {
		if len(s.Source) <= smallBytes && len(s.Techniques) > 0 {
			small = append(small, e)
		}
	}
	if len(small) < hotPS {
		return nil, fmt.Errorf("plan has %d scripts of at most %d bytes, want %d", len(small), smallBytes, hotPS)
	}
	js, err := jsInputs(root)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	si := &serviceInputs{hot: hotPS + hotJS}
	schedule := func(n int) []int {
		sched := make([]int, n)
		for k := range sched {
			if rng.Float64() < hotShare {
				sched[k] = rng.Intn(si.hot)
			} else {
				sched[k] = -1 // a never-seen script, assigned below
			}
		}
		return sched
	}
	si.warm = schedule(warmN)
	round := schedule(roundN)
	for r := 0; r < rounds; r++ {
		si.timed = append(si.timed, round...)
	}
	cold := 0
	for _, sched := range [][]int{si.warm, si.timed} {
		for k, idx := range sched {
			if idx < 0 {
				sched[k] = si.hot + cold
				cold++
			}
		}
	}
	// The scripts are the same on every seed, and the seed draws the
	// schedule: which requests are hot, which hot script each sends and
	// the order of the never-seen scripts. Drawing the scripts from the
	// seed too moved latency_p95_ms by half from seed to seed, as the
	// cost of 24 hot scripts and of the never-seen tail decides it. The
	// hot set is the first small plan entries and jsHot; never-seen
	// scripts cycle through the small entries, each under a seed of its
	// own. Scripts are drawn in order, so that a draw that repeats an
	// earlier script is redrawn.
	n := hotPS + cold
	seen := make(map[string]bool, n+hotJS)
	for _, in := range js {
		seen[in.src] = true
	}
	fresh := func(src string) bool { return !seen[src] }
	ps := make([]input, n)
	for i := range ps {
		e := small[i%len(small)]
		ps[i], err = p.draw(e, p.samples[e].Original, p.samples[e].Techniques,
			func(a int) int64 { return obfSeed(-1, a*maxRequests+i) }, fresh)
		if err != nil {
			return nil, err
		}
		seen[ps[i].src] = true
	}
	rng.Shuffle(cold, func(i, j int) { ps[hotPS+i], ps[hotPS+j] = ps[hotPS+j], ps[hotPS+i] })
	si.scripts = append(append(ps[:hotPS:hotPS], js...), ps[hotPS:]...)
	return si, nil
}

// jsHot are the JavaScript inputs of the service-open hot set: a decoder
// of stacked layers and a dropper. They are sent without a language, so
// auto-detection must pick the JavaScript frontend for them.
var jsHot = [hotJS]string{"08_composed_layers.js", "11_dropper_style.js"}

// jsInputs loads the jsHot inputs with their golden outputs.
func jsInputs(root string) ([]input, error) {
	dir := filepath.Join(root, "internal", "jsfront", "testdata")
	var out []input
	for _, name := range jsHot {
		src, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		golden, err := os.ReadFile(filepath.Join(dir, "golden", strings.TrimSuffix(name, ".js")+".golden"))
		if err != nil {
			return nil, err
		}
		out = append(out, input{id: name, src: string(src), js: true, golden: string(golden)})
	}
	return out, nil
}
