package server

// POST /v1/graph/mutate: epoch-based live mutation. One request is one
// atomic batch of graph writes. The handler forks the dataset's current
// graph, applies the whole batch to the fork, asks the serving engine for its
// successor over it (core.Engine.Successor: CSR, attribute index, domain and
// caches derived from the current epoch's, at the cost of the batch), and
// publishes that with one atomic pointer swap — the next epoch. In-flight
// searches pinned to the old engine finish on the old CSR untouched; requests
// admitted after the swap see the new graph. Every cache still hangs off its
// engine; the successor starts with a filtered copy — the entries whose
// footprint the batch's footprint cannot reach — so a stale hit across epochs
// stays impossible by construction.
//
// Writers serialize on the dataset's mutation mutex, but still pass through
// the shared admission/brownout path first: a mutate that finds the queue
// full gets a retryable 429 exactly like a read — degrade, never corrupt.
//
// Validation is all-or-nothing: any bad element fails the batch with 400
// before publication, and the discarded fork leaves the serving graph
// untouched. What needs no graph — shapes, bounds, attribute values — is
// checked before the request takes an admission slot or the write lock.

import (
	"net/http"
	"time"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/wire"
)

// decodeAttrs converts wire attributes; nil/empty maps become nil so packed
// snapshots of mutated graphs stay canonical.
func decodeAttrs(m map[string]wire.Value) (graph.Attrs, error) {
	if len(m) == 0 {
		return nil, nil
	}
	attrs := make(graph.Attrs, len(m))
	for k, wv := range m {
		v, err := wv.ToValue()
		if err != nil {
			return nil, err
		}
		attrs[k] = v
	}
	return attrs, nil
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	inject := s.begin(epMutate)
	var req wire.MutateRequest
	if code, err := decodeBody(w, r, &req); err != nil {
		s.fail(w, r, code, wire.CodeInvalidSpec, "bad request body: %v", err)
		return
	}
	ds, ok := s.lookup(req.Dataset)
	if !ok {
		s.fail(w, r, http.StatusNotFound, wire.CodeInvalidSpec, "unknown dataset %q (see /v1/datasets)", req.Dataset)
		return
	}
	total := len(req.AddVertices) + len(req.AddEdges) + len(req.RemoveVertices) + len(req.RemoveEdges)
	if total == 0 {
		s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "empty mutation batch")
		return
	}
	if total > s.cfg.MaxMutationBatch {
		s.fail(w, r, http.StatusBadRequest, wire.CodeBoundViolation, "batch of %d elements exceeds the maximum %d", total, s.cfg.MaxMutationBatch)
		return
	}
	if req.TimeoutMs < 0 {
		s.fail(w, r, http.StatusBadRequest, wire.CodeBoundViolation, "timeoutMs must be non-negative")
		return
	}
	vertexAttrs := make([]graph.Attrs, len(req.AddVertices))
	for i, mv := range req.AddVertices {
		attrs, err := decodeAttrs(mv.Attrs)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "addVertices[%d]: %v", i, err)
			return
		}
		vertexAttrs[i] = attrs
	}
	edgeAttrs := make([]graph.Attrs, len(req.AddEdges))
	for i, e := range req.AddEdges {
		if e.Type == "" {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "addEdges[%d]: missing edge type", i)
			return
		}
		if e.From < -len(req.AddVertices) || e.To < -len(req.AddVertices) {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "addEdges[%d]: batch-local reference %d/%d outside this batch's %d added vertices", i, e.From, e.To, len(req.AddVertices))
			return
		}
		attrs, err := decodeAttrs(e.Attrs)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "addEdges[%d]: %v", i, err)
			return
		}
		edgeAttrs[i] = attrs
	}
	if inject.Kind == faultinject.Error {
		s.writeError(w, r, s.newInjectedError(http.StatusInternalServerError, "injected fault: error"))
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMs)
	defer cancel()
	release, _, f := s.admit(r, ctx, ds, inject)
	if f != nil {
		s.writeError(w, r, f)
		return
	}
	defer release()

	ds.mutMu.Lock()
	defer ds.mutMu.Unlock()
	// refreezeMs times the publication alone: fork, apply, derive, swap.
	started := time.Now()
	old := ds.engine()
	oldG := old.Graph()
	g := oldG.Fork()

	resp := wire.MutateResponse{}
	addedV := make([]graph.VertexID, 0, len(req.AddVertices))
	for _, attrs := range vertexAttrs {
		id := g.AddVertex(attrs)
		addedV = append(addedV, id)
		resp.AddedVertices = append(resp.AddedVertices, int(id))
	}
	resolve := func(ref int) (graph.VertexID, bool) {
		if ref < 0 {
			return addedV[-ref-1], true // range-checked above
		}
		id := graph.VertexID(ref)
		if ref >= g.NumVertices() || g.VertexRemoved(id) {
			return 0, false
		}
		return id, true
	}
	for i, me := range req.AddEdges {
		from, okF := resolve(me.From)
		to, okT := resolve(me.To)
		if !okF || !okT {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "addEdges[%d]: endpoint %d -> %d does not name a live vertex", i, me.From, me.To)
			return
		}
		id := g.AddEdge(from, to, me.Type, edgeAttrs[i])
		resp.AddedEdges = append(resp.AddedEdges, int(id))
	}
	for i, ref := range req.RemoveEdges {
		id := graph.EdgeID(ref)
		if ref < 0 || ref >= g.NumEdges() || g.EdgeRemoved(id) {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "removeEdges[%d]: edge %d does not name a live edge", i, ref)
			return
		}
		if err := g.RemoveEdge(id); err != nil {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "removeEdges[%d]: %v", i, err)
			return
		}
	}
	for i, ref := range req.RemoveVertices {
		id := graph.VertexID(ref)
		if ref < 0 || ref >= g.NumVertices() || g.VertexRemoved(id) {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "removeVertices[%d]: vertex %d does not name a live vertex", i, ref)
			return
		}
		if err := g.RemoveVertex(id); err != nil {
			s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "removeVertices[%d]: %v", i, err)
			return
		}
	}
	resp.RemovedVertices = g.NumRemovedVertices() - oldG.NumRemovedVertices()
	resp.RemovedEdges = g.NumRemovedEdges() - oldG.NumRemovedEdges()

	// Derive the next epoch from this one, then publish atomically.
	ds.eng.Store(old.Successor(g))
	epoch := ds.epoch.Add(1)
	elapsed := time.Since(started)
	ds.lastRefreezeNs.Store(elapsed.Nanoseconds())

	resp.Epoch = epoch
	resp.Vertices = g.NumLiveVertices()
	resp.Edges = g.NumLiveEdges()
	resp.RefreezeMs = float64(elapsed.Nanoseconds()) / 1e6
	s.writeData(w, r, resp)
}
