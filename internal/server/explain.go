package server

// The explain pipeline: validate → admit → run → classify → stamp. Every
// explain the daemon serves — POST /v1/explain, /v1/explain/stream and each
// work group of /v1/explain/batch — passes through validateExplain and
// runExplain; the three transports differ only in how they render the
// marshaled report or the failure that comes back.

import (
	"encoding/json"
	"net/http"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/resilience"
	"repro/internal/wire"
)

// degradeExplain applies the brownout quality clamps to resolved explain
// options and returns the (budget, ε) pair the response's quality bound
// reports. The clamped run is an ordinary explain: re-running ExplainCtx
// with these options sequentially reproduces the degraded answer byte for
// byte.
func degradeExplain(opts *core.Options) (int, int) {
	opts.Budget = max(int(float64(opts.Budget)*resilience.DegradedBudgetFrac), 1)
	if opts.MaxRewritings == 0 || opts.MaxRewritings > resilience.DegradedMaxRewritings {
		opts.MaxRewritings = resilience.DegradedMaxRewritings
	}
	opts.Epsilon = resilience.DegradedEpsilon
	return opts.Budget, opts.Epsilon
}

// qualityBound states what a degraded answer is worth: the clamped budget
// and ε it ran under, the executions spent, and the best cardinality
// distance reached (the minimum over scored rewritings, falling back to the
// fine-grained trace's best-so-far; -1 when nothing was found).
func qualityBound(rep *core.Report, budget, eps int) *wire.QualityBound {
	best := -1
	for i := range rep.Rewritings {
		if d := rep.Rewritings[i].CardinalityDistance; best < 0 || d < best {
			best = d
		}
	}
	if best < 0 && rep.FineGrained && len(rep.Trace) > 0 {
		best = rep.Trace[len(rep.Trace)-1]
	}
	return &wire.QualityBound{Budget: budget, Epsilon: eps, Executed: rep.Executed, BestDistance: best}
}

// explainPrep is the validated, clamped input of one explain run.
type explainPrep struct {
	req  wire.ExplainRequest
	ds   *dataset
	eng  *core.Engine // the epoch this request is pinned to
	q    *query.Query
	opts core.Options
}

// validateExplain validates a decoded explain request, resolves the query
// spec, applies the fault-injected error, and clamps the knobs into
// core.Options. The validation sequence (and therefore which error a
// multiply broken spec reports) is part of the v1 contract.
func (s *Server) validateExplain(req wire.ExplainRequest, inject faultinject.Decision) (prep explainPrep, f *failure) {
	prep.req = req
	ds, found := s.lookup(req.Dataset)
	if !found {
		return prep, s.newError(http.StatusNotFound, wire.CodeInvalidSpec, "unknown dataset %q (see /v1/datasets)", req.Dataset)
	}
	prep.ds = ds
	prep.eng = ds.engine()
	if req.Lower < 0 || req.Upper < 0 {
		return prep, s.newError(http.StatusBadRequest, wire.CodeBoundViolation, "cardinality bounds must be non-negative (lower=%d upper=%d)", req.Lower, req.Upper)
	}
	if req.Upper > 0 && req.Upper < req.Lower {
		return prep, s.newError(http.StatusBadRequest, wire.CodeBoundViolation, "upper bound %d below lower bound %d", req.Upper, req.Lower)
	}
	if req.Budget < 0 || req.ResultSample < 0 || req.MaxRewritings < 0 || req.TimeoutMs < 0 {
		return prep, s.newError(http.StatusBadRequest, wire.CodeBoundViolation, "budget, resultSample, maxRewritings, and timeoutMs must be non-negative")
	}
	q, code, err := s.resolveQuery(ds, req.Builtin, req.Failing, req.Query)
	if err != nil {
		return prep, s.newError(code, wire.CodeInvalidSpec, "%v", err)
	}
	prep.q = q
	if inject.Kind == faultinject.Error {
		return prep, s.newInjectedError(http.StatusInternalServerError, "injected fault: error")
	}
	// Budget 0 stays 0: the engine applies its own default (300).
	budget := min(req.Budget, s.cfg.MaxBudget)
	resultSample := req.ResultSample
	if resultSample > s.cfg.MaxResultSample {
		resultSample = s.cfg.MaxResultSample
	}
	prep.opts = core.Options{
		Expected:      metrics.Interval{Lower: req.Lower, Upper: req.Upper},
		MaxRewritings: req.MaxRewritings,
		FineGrained:   req.FineGrained,
		AllowTopology: req.AllowTopology,
		Budget:        budget,
		ResultSample:  resultSample,
	}
	return prep, nil
}

// runExplain serves one validated explain: request context, admission,
// brownout clamp, injected mid-search cancel, the search, failure
// classification, and degraded stamping. It returns the
// marshaled report (the bytes every transport carries as `data`) beside the
// report itself, or the failure — already counted, whoever renders it.
//
// admitted, when non-nil, fires once the request holds an execution slot:
// any later failure happened mid-run. improved, when non-nil, receives each
// improvement of the search's incumbent, on the calling goroutine; returning
// an error (the client is gone) cancels the run before the next candidate
// execution.
func (s *Server) runExplain(r *http.Request, prep *explainPrep, inject faultinject.Decision, admitted func(), improved func(wire.StreamEvent) error) ([]byte, *wire.Report, *failure) {
	ds, opts := prep.ds, prep.opts
	ctx, cancel := s.requestContext(r, prep.req.TimeoutMs)
	defer cancel()
	release, state, f := s.admit(r, ctx, ds, inject)
	if f != nil {
		return nil, nil, f
	}
	defer release()
	if admitted != nil {
		admitted()
	}
	degraded := state == resilience.Degraded
	var qbBudget, qbEps int
	if degraded {
		qbBudget, qbEps = degradeExplain(&opts)
	}
	if inject.Kind == faultinject.Cancel {
		// The kernel-layer fault: cancel the request context from inside the
		// search, via the executor's pre-execution probe.
		after := inject.CancelAfter
		opts.Probe = func(executions int) {
			if executions >= after {
				cancel()
			}
		}
	}
	if improved != nil {
		seq := 0
		opts.OnImprovement = func(imp core.Improvement) {
			if ctx.Err() != nil {
				return
			}
			seq++
			ev := wire.FromImprovement(imp)
			ev.Seq = seq
			if degraded {
				ev.QualityBound = &wire.QualityBound{Budget: qbBudget, Epsilon: qbEps, Executed: imp.Executed, BestDistance: imp.Distance}
			}
			if improved(ev) != nil {
				cancel()
			}
		}
	}
	rep, err := prep.eng.ExplainCtx(ctx, prep.q, opts)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			if inject.Kind == faultinject.Cancel && r.Context().Err() == nil && s.drainCtx.Err() == nil {
				return nil, nil, s.newInjectedError(http.StatusServiceUnavailable, "injected fault: mid-search cancellation")
			}
			return nil, nil, s.ctxError(r, ctxErr, false)
		}
		return nil, nil, s.newError(http.StatusBadRequest, wire.CodeInvalidSpec, "%v", err)
	}
	resp := wire.FromReport(rep)
	if degraded {
		s.degradedServed.Add(1)
		resp.Degraded = true
		resp.QualityBound = qualityBound(rep, qbBudget, qbEps)
	}
	payload, err := json.Marshal(&resp)
	if err != nil {
		return nil, nil, s.newError(http.StatusInternalServerError, wire.CodeInternal, "encoding failure: %v", err)
	}
	return payload, &resp, nil
}

// handleExplain is the blocking rendering: the report, or the failure under
// its HTTP status, in one envelope.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	inject, started := s.begin(epExplain)
	defer s.end(epExplain, started)
	var req wire.ExplainRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		s.fail(w, r, code, wire.CodeInvalidSpec, "bad request body: %v", err)
		return
	}
	prep, f := s.validateExplain(req, inject)
	if f != nil {
		s.writeError(w, r, f)
		return
	}
	payload, _, f := s.runExplain(r, &prep, inject, nil, nil)
	if f != nil {
		s.writeError(w, r, f)
		return
	}
	s.writePayload(w, r, payload)
}
