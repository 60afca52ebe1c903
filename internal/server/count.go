package server

import (
	"net/http"
	"time"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// handleCount serves the internal shard RPC: a range-restricted count for the
// scatter-gather coordinator (POST /v1/internal/count). It is a trusted
// peer-to-peer endpoint, so it deliberately skips admission and brownout —
// the coordinator already admitted the user request, and queueing the fan-out
// legs behind user traffic would turn one admitted request into N queued
// ones. The cap is passed through verbatim: cap 0 means an exact count, and
// the sharded answer must stay byte-identical to the unsharded one.
//
// The RPC fault sites (rpc-latency, rpc-error, rpc-blackhole) are drawn here
// from the injector's independent RPC distribution, which is how the chaos
// gate exercises the coordinator's retry ladder, hedging, and breakers
// deterministically.
func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Add(1)
	inject := s.cfg.Injector.DecideRPC("count", s.countSeq.Add(1)-1)
	if inject.Kind == faultinject.RPCLatency {
		time.Sleep(inject.Latency)
	}
	var req wire.CountRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		s.fail(w, r, code, wire.CodeInvalidSpec, "bad request body: %v", err)
		return
	}
	ds, ok := s.lookup(req.Dataset)
	if !ok {
		s.fail(w, r, http.StatusNotFound, wire.CodeInvalidSpec, "unknown dataset %q (see /v1/datasets)", req.Dataset)
		return
	}
	if req.Query == nil {
		s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "missing query")
		return
	}
	if req.Cap < 0 || req.Lo < 0 || req.Lo > req.Hi {
		s.fail(w, r, http.StatusBadRequest, wire.CodeBoundViolation, "want cap >= 0 and 0 <= lo <= hi, got cap=%d lo=%d hi=%d", req.Cap, req.Lo, req.Hi)
		return
	}
	q, err := req.Query.ToQuery()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "%v", err)
		return
	}
	switch inject.Kind {
	case faultinject.RPCError:
		s.writeError(w, r, s.newInjectedError(http.StatusServiceUnavailable, "injected fault: rpc-error"))
		return
	case faultinject.RPCBlackhole:
		// Hold the connection, then kill it without writing a response: the
		// recoverer passes http.ErrAbortHandler through, so the peer's client
		// sees a dead connection mid-exchange rather than a status code.
		time.Sleep(inject.Latency)
		s.injected.Add(1)
		panic(http.ErrAbortHandler)
	}
	m := ds.engine().Matcher()
	hi := req.Hi
	if nv := m.Graph().NumVertices(); hi > nv {
		hi = nv
	}
	s.writeData(w, r, wire.CountResponse{Count: m.CountRange(q, "", req.Cap, req.Lo, hi)})
}
