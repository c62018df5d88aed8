package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/psast"
	"github.com/invoke-deobfuscation/invokedeob/internal/psparser"
	"github.com/invoke-deobfuscation/invokedeob/internal/pstoken"
	"github.com/invoke-deobfuscation/invokedeob/internal/server"
)

const (
	// maxEvalPieces caps the recoverable pieces a traced run evaluates,
	// taken at an even stride over every piece found.
	maxEvalPieces = 2000
	// serverProbes is how many inputs of a closed-loop workload the
	// traced run sends through an in-process server, one at a time.
	serverProbes = 24
)

// probeLayers times the public entry points of the frontend registry,
// the tokenizer, the parser and the interpreter on each input and on
// the texts the engine produced from it (texts[i]: unwrapped layers or
// the output), one span per call, and sets the per-layer metrics they
// give.
func probeLayers(tr *tracer, inputs []input, texts [][]string, v map[string]float64) error {
	type piece struct {
		op   int
		text string
	}
	var pieces []piece
	var tokBytes, parseBytes int
	for i := range inputs {
		in := &inputs[i]
		root := tr.begin(i, "probe", -1)
		s := tr.begin(i, "frontend.Detect", root)
		frontend.Detect(in.src)
		tr.end(s)
		if in.js {
			tr.end(root)
			continue
		}
		for _, text := range append([]string{in.src}, texts[i]...) {
			s = tr.begin(i, "pstoken.Tokenize", root)
			_, terr := pstoken.Tokenize(text)
			tr.end(s)
			s = tr.begin(i, "psparser.Parse", root)
			sb, perr := psparser.Parse(text)
			tr.end(s)
			if terr != nil || perr != nil {
				return fmt.Errorf("input %d: a text the engine accepted does not tokenize or parse: %v %v", i, terr, perr)
			}
			tokBytes += len(text)
			parseBytes += len(text)
			psast.Walk(sb, func(n psast.Node) bool {
				if psast.IsRecoverableKind(n.Kind()) {
					pieces = append(pieces, piece{op: i, text: n.Extent().Text(text)})
				}
				return true
			}, nil)
		}
		tr.end(root)
	}
	fe, err := frontend.Get("powershell")
	if err != nil {
		return err
	}
	stride := (len(pieces) + maxEvalPieces - 1) / maxEvalPieces
	for k := 0; k < len(pieces); k += max(stride, 1) {
		s := tr.begin(pieces[k].op, "psinterp.Evaluate", -1)
		fe.Evaluate(context.Background(), pieces[k].text, nil, frontend.EvalBudget{}) // failures are timed like successes
		tr.end(s)
	}
	detect, nDetect := tr.total("frontend.Detect")
	tok, _ := tr.total("pstoken.Tokenize")
	parse, _ := tr.total("psparser.Parse")
	eval, nEval := tr.total("psinterp.Evaluate")
	v["frontend.detect_us"] = ratio(float64(detect)/1e3, float64(nDetect))
	v["pstoken.ns_per_byte"] = ratio(float64(tok), float64(tokBytes))
	v["psparser.ns_per_byte"] = ratio(float64(parse), float64(parseBytes))
	v["psinterp.eval_us_per_piece"] = ratio(float64(eval)/1e3, float64(nEval))
	return nil
}

// probeServer sends serverProbes of a closed-loop workload's inputs,
// one at a time, through an in-process server with default settings,
// and returns the median of client-observed time minus the engine's
// own run time.
func probeServer(tr *tracer, inputs []input) (float64, error) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	stride := max(len(inputs)/serverProbes, 1)
	var over []float64
	for i := 0; i < len(inputs); i += stride {
		s := tr.begin(i, "server.request", -1)
		t0 := time.Now()
		r, err := post(client, ts.URL, &inputs[i])
		d := time.Since(t0)
		tr.end(s)
		if err != nil {
			return 0, fmt.Errorf("server probe of input %d: %w", i, err)
		}
		over = append(over, ms(d-r.Stats.Duration))
	}
	return median(over), srv.Drain(context.Background())
}
