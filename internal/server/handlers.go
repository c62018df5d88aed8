package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/invoke-deobfuscation/invokedeob/internal/core"
	"github.com/invoke-deobfuscation/invokedeob/internal/frontend"
	"github.com/invoke-deobfuscation/invokedeob/internal/limits"
	"github.com/invoke-deobfuscation/invokedeob/internal/pipeline"
)

// scriptRequest is one script on the wire (the whole body of
// /v1/deobfuscate, one element of /v1/batch).
type scriptRequest struct {
	// Name labels the script in responses and logs (sample ID, path...).
	Name string `json:"name,omitempty"`
	// Lang selects the language frontend ("powershell", "javascript",
	// or a registered alias). Empty falls back to the engine's
	// configured language, then to per-script auto-detection. Unknown
	// names answer 422 ErrBadLang.
	Lang string `json:"lang,omitempty"`
	// Script is the source text.
	Script string `json:"script"`
}

// batchRequest is the /v1/batch body.
type batchRequest struct {
	Scripts []scriptRequest `json:"scripts"`
}

// resultBody is the wire shape of one successful (or partial)
// deobfuscation. Stats and PassTrace marshal the engine structs
// directly, so the HTTP surface and the library report identical
// counters.
type resultBody struct {
	Name string `json:"name,omitempty"`
	// Lang is the canonical name of the frontend that handled the run
	// (the explicit request lang or the auto-detected guess).
	Lang   string     `json:"lang,omitempty"`
	Script string     `json:"script"`
	Stats  core.Stats `json:"stats"`
	// PassTrace is the per-pass execution trace (runs, duration, bytes,
	// reverts, parse-/eval-cache outcomes).
	PassTrace []pipeline.PassStat `json:"pass_trace,omitempty"`
	// Layers holds the intermediate script after each fixpoint round;
	// included only when the request asked with ?layers=1.
	Layers []string `json:"layers,omitempty"`
}

// batchItemBody is one script's outcome inside a /v1/batch response.
type batchItemBody struct {
	Name   string `json:"name,omitempty"`
	Index  int    `json:"index"`
	Lang   string `json:"lang,omitempty"`
	Script string `json:"script,omitempty"`
	// Error carries the per-script failure, if any; a script can carry
	// both a partial Script and an Error (envelope violation mid-run).
	Error *errorInfo  `json:"error,omitempty"`
	Stats *core.Stats `json:"stats,omitempty"`
}

// batchResponse is the /v1/batch body. The HTTP status is 200 whenever
// the batch itself ran; per-script failures are reported per item,
// mirroring DeobfuscateBatch's contract that one hostile script must
// not fail its siblings.
type batchResponse struct {
	Results []batchItemBody `json:"results"`
}

// toResultBody converts an engine result.
func toResultBody(name string, res *core.Result, withLayers bool) *resultBody {
	if res == nil {
		return nil
	}
	body := &resultBody{
		Name:      name,
		Lang:      res.Lang,
		Script:    res.Script,
		Stats:     res.Stats,
		PassTrace: res.PassTrace,
	}
	if withLayers {
		body.Layers = res.Layers
	}
	return body
}

// langLabel resolves the per-language counter key for one run: the
// engine's canonical resolution when a result exists, the (normalized)
// requested name when the run failed before resolving, "unknown" when
// nothing was requested either.
func langLabel(res *core.Result, requested string) string {
	if res != nil && res.Lang != "" {
		return res.Lang
	}
	if requested != "" {
		return frontend.Normalize(requested)
	}
	return "unknown"
}

// wantLayers reports whether the request opted into layer output.
func wantLayers(r *http.Request) bool {
	switch r.URL.Query().Get("layers") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// admit performs admission control and in-flight registration for one
// work-bearing request. On success the caller owns release (MUST call
// it exactly once, after engine work ends). On failure the response
// has been written.
func (s *Server) admitRequest(w http.ResponseWriter) (release func(), ok bool) {
	if !s.begin() {
		s.stats.count(famRejected, rejectDraining)
		writeRetryAfter(w, http.StatusServiceUnavailable, nameDraining,
			"server is draining; retry against a healthy replica", 1)
		return nil, false
	}
	select {
	case s.admit <- struct{}{}:
	default:
		s.end()
		s.stats.count(famRejected, rejectSaturated)
		writeRetryAfter(w, http.StatusTooManyRequests, nameSaturated,
			fmt.Sprintf("worker pool and queue full (%d executing + %d queued); back off",
				s.cfg.Workers, s.cfg.QueueDepth), 1)
		return nil, false
	}
	return func() {
		<-s.admit
		s.end()
	}, true
}

// checkQuota charges the request against its tenant's token bucket
// (keyed by APIKeyHeader; unkeyed traffic shares the anonymous
// bucket). Quota exhaustion answers 429 ErrQuota with a Retry-After
// computed from the bucket's actual refill time, before admission and
// before the body is read, so a quota-busting flood costs the server
// one map lookup per request. A nil limiter (quotas disabled) always
// passes.
func (s *Server) checkQuota(w http.ResponseWriter, r *http.Request) bool {
	if s.quota == nil {
		return true
	}
	key := r.Header.Get(APIKeyHeader)
	if key == "" {
		key = anonKey
	}
	dec := s.quota.Allow(key)
	if dec.OK {
		return true
	}
	s.stats.count(famRejected, rejectQuota)
	writeRetryAfter(w, limits.HTTPStatus(limits.ErrQuota), "ErrQuota",
		fmt.Sprintf("per-tenant quota exceeded (%.3g req/s, burst %.3g); bucket refills in %s",
			s.cfg.QuotaRate, s.cfg.QuotaBurst, dec.RetryAfter.Round(time.Millisecond)),
		retryAfterSeconds(dec.RetryAfter))
	return false
}

// retryAfterSeconds rounds a refill duration up to the whole seconds
// the Retry-After header speaks, never below 1.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// checkShed classifies the request's predicted cost and, when the
// admission window is above the shed high-water mark, refuses heavy
// work with 503 ErrShed so light traffic keeps flowing. Admitted
// requests are counted per class either way.
func (s *Server) checkShed(w http.ResponseWriter, cost float64) bool {
	class := s.classifyCost(cost)
	if class == classHeavy && s.underPressure() {
		s.stats.count(famRejected, rejectShedHeavy)
		s.stats.count(famClasses, "heavy_shed")
		writeRetryAfter(w, limits.HTTPStatus(limits.ErrShed), "ErrShed",
			fmt.Sprintf("server over %d%% of admission capacity; shedding predicted-heavy work (cost %.0f >= %.0f) so light traffic keeps flowing",
				int(s.cfg.ShedHighWater*100), cost, s.cfg.HeavyCost), 2)
		return false
	}
	s.stats.count(famClasses, class)
	return true
}

// acquireSlot blocks until a worker slot frees or the request deadline
// expires. On deadline it writes the taxonomy error and reports false;
// the 504 carries a Retry-After because the correct client move — like
// the 429/503 refusals — is to back off and retry, ideally against a
// less-loaded replica.
func (s *Server) acquireSlot(ctx context.Context, w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, true
	case <-ctx.Done():
		err := limits.FromContext(ctx.Err())
		status, name := classify(err)
		s.stats.count(famErrors, name)
		writeRetryAfter(w, status, name, "request deadline expired while queued for a worker", 1)
		return nil, false
	}
}

// decodeBody decodes a JSON request body under the body-size limit,
// mapping oversize to the ErrInputBudget taxonomy member.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.stats.count(famErrors, "ErrInputBudget")
			writeError(w, limits.HTTPStatus(limits.ErrInputBudget), "ErrInputBudget",
				fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes), nil)
			return false
		}
		writeError(w, http.StatusBadRequest, nameBadRequest,
			"malformed request body: "+err.Error(), nil)
		return false
	}
	return true
}

// checkScript enforces the per-script size limit and non-emptiness.
func (s *Server) checkScript(w http.ResponseWriter, label, script string) bool {
	if script == "" {
		writeError(w, http.StatusBadRequest, nameBadRequest,
			label+": empty script", nil)
		return false
	}
	if len(script) > s.cfg.MaxScriptBytes {
		s.stats.count(famErrors, "ErrInputBudget")
		writeError(w, limits.HTTPStatus(limits.ErrInputBudget), "ErrInputBudget",
			fmt.Sprintf("%s: script of %d bytes exceeds the %d-byte limit",
				label, len(script), s.cfg.MaxScriptBytes), nil)
		return false
	}
	return true
}

// requirePost gates the work endpoints on the POST method.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, nameMethodNotAllowed,
			r.Method+" not allowed; POST a JSON body", nil)
		return false
	}
	return true
}

// handleDeobfuscate serves POST /v1/deobfuscate: one script in, the
// recovered script plus stats and pass trace out.
func (s *Server) handleDeobfuscate(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	// Tenant quota before admission: a quota-busting flood is answered
	// from the token bucket alone, without consuming admission tokens.
	if !s.checkQuota(w, r) {
		return
	}
	// Admission before body read: a saturated server sheds load without
	// paying to parse what it cannot serve.
	release, ok := s.admitRequest(w)
	if !ok {
		return
	}
	defer release()
	s.stats.count(famRequests, endpointDeobfuscate)
	var req scriptRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !s.checkScript(w, "script", req.Script) {
		return
	}
	// Cost-aware degradation: under pressure, predicted-heavy scripts
	// are refused here — after size checks, before any engine work.
	if !s.checkShed(w, costEstimate(req.Script)) {
		return
	}
	ctx, cancel, ok := s.requestContext(r)
	if !ok {
		writeError(w, http.StatusBadRequest, nameBadRequest,
			"invalid "+TimeoutHeader+" header: want a positive Go duration like 500ms", nil)
		return
	}
	defer cancel()
	releaseSlot, ok := s.acquireSlot(ctx, w)
	if !ok {
		return
	}
	res, err := s.runSingle(ctx, req.Lang, req.Script)
	releaseSlot()
	s.stats.count(famRuns, langLabel(res, req.Lang))
	if res != nil {
		s.stats.observeRun(res)
	}
	if err != nil {
		status, name := classify(err)
		s.stats.count(famErrors, name)
		writeError(w, status, name, err.Error(), toResultBody(req.Name, res, wantLayers(r)))
		return
	}
	s.stats.count(famCompleted, endpointDeobfuscate)
	writeJSON(w, http.StatusOK, toResultBody(req.Name, res, wantLayers(r)))
}

// handleBatch serves POST /v1/batch with DeobfuscateBatch semantics:
// per-script envelopes, input-order results, per-item errors. The batch
// holds one admission token and one worker slot; its internal
// parallelism is Engine.Jobs.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if !s.checkQuota(w, r) {
		return
	}
	release, ok := s.admitRequest(w)
	if !ok {
		return
	}
	defer release()
	s.stats.count(famRequests, endpointBatch)
	var req batchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Scripts) == 0 {
		writeError(w, http.StatusBadRequest, nameBadRequest, "empty batch", nil)
		return
	}
	if len(req.Scripts) > s.cfg.MaxBatchScripts {
		s.stats.count(famErrors, "ErrInputBudget")
		writeError(w, limits.HTTPStatus(limits.ErrInputBudget), "ErrInputBudget",
			fmt.Sprintf("batch of %d scripts exceeds the %d-script limit",
				len(req.Scripts), s.cfg.MaxBatchScripts), nil)
		return
	}
	inputs := make([]core.BatchInput, len(req.Scripts))
	batchCost := 0.0
	for i, sc := range req.Scripts {
		label := fmt.Sprintf("scripts[%d]", i)
		if !s.checkScript(w, label, sc.Script) {
			return
		}
		batchCost += costEstimate(sc.Script)
		inputs[i] = core.BatchInput{Name: sc.Name, Lang: sc.Lang, Script: sc.Script}
	}
	// A batch sheds as a unit on its summed cost: it occupies one
	// admission token and one worker slot regardless of width, so its
	// pressure contribution is the whole batch's work.
	if !s.checkShed(w, batchCost) {
		return
	}
	ctx, cancel, ok := s.requestContext(r)
	if !ok {
		writeError(w, http.StatusBadRequest, nameBadRequest,
			"invalid "+TimeoutHeader+" header: want a positive Go duration like 500ms", nil)
		return
	}
	defer cancel()
	releaseSlot, ok := s.acquireSlot(ctx, w)
	if !ok {
		return
	}
	results := s.runBatch(ctx, inputs)
	releaseSlot()
	resp := batchResponse{Results: make([]batchItemBody, len(results))}
	for i, br := range results {
		item := batchItemBody{Name: br.Name, Index: br.Index}
		s.stats.count(famRuns, langLabel(br.Result, req.Scripts[br.Index].Lang))
		if br.Result != nil {
			s.stats.observeRun(br.Result)
			item.Lang = br.Result.Lang
			item.Script = br.Result.Script
			stats := br.Result.Stats
			item.Stats = &stats
		}
		if br.Err != nil {
			status, name := classify(br.Err)
			s.stats.count(famErrors, name)
			item.Error = &errorInfo{Name: name, Message: br.Err.Error(), Status: status}
		}
		resp.Results[i] = item
	}
	s.stats.count(famCompleted, endpointBatch)
	writeJSON(w, http.StatusOK, resp)
}
