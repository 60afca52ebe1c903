package server

// POST /v1/explain/batch — fleet-grade request batching.
//
// A batch carries up to Config.MaxBatch (64) independent explain specs and answers
// them in one round trip. The contract is strict: Items[i] of the response
// is the full v1 envelope request Items[i] would have received from a
// separate /v1/explain call, byte for byte (request ids aside — an item's
// id is "<batchId>/<i>"). Items validate, fail, degrade, and go partial
// independently; one malformed item costs nothing to its neighbours.
//
// The point of the transport is work sharing. Items are grouped by their
// full execution identity — dataset, engine epoch, canonical query key, and
// every knob that reaches core.Options — and each group runs the search
// exactly once, fanning the encoded payload out to all its items. A
// duplicate-heavy batch therefore costs one admission slot and one search
// per distinct spec instead of one per item. Distinct groups of one dataset
// fan out concurrently, bounded by the dataset's admission capacity so a
// wide batch cannot starve single-request traffic, and each group passes
// the same admission gate (queue full, slot wait) an individual request
// would.

import (
	"fmt"
	"net/http"
	"sync"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// batchGroup is one unit of distinct work in a batch: a representative
// validated prep plus the indices of every item that shares its execution
// identity.
type batchGroup struct {
	prep  explainPrep
	items []int
}

// groupKey is an item's full execution identity. Two items map to the same
// key only if a single /v1/explain call would run them identically: same
// dataset and engine epoch (the pointer pins the epoch — a mutation swap
// between items must not share work across graphs), same canonical query,
// and the same resolved options and timeout.
func groupKey(p *explainPrep) string {
	fg := byte(0)
	if p.req.FineGrained != nil {
		fg = 1
		if *p.req.FineGrained {
			fg = 2
		}
	}
	key := p.q.AppendKey(nil)
	return fmt.Sprintf("%s\x00%p\x00%d\x00%d\x00%d\x00%d\x00%c\x00%t\x00%d\x00%d\x00%s",
		p.ds.name, p.eng,
		p.opts.Expected.Lower, p.opts.Expected.Upper,
		p.opts.MaxRewritings, p.opts.Budget, fg, p.opts.AllowTopology,
		p.opts.ResultSample, p.req.TimeoutMs, key)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	inject := s.begin(epBatch)
	var breq wire.BatchExplainRequest
	if code, err := decodeBody(w, r, &breq); err != nil {
		s.fail(w, r, code, wire.CodeInvalidSpec, "bad request body: %v", err)
		return
	}
	if len(breq.Items) == 0 {
		s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "batch must carry at least one item")
		return
	}
	if len(breq.Items) > s.cfg.MaxBatch {
		s.fail(w, r, http.StatusBadRequest, wire.CodeInvalidSpec, "batch of %d items exceeds the maximum of %d", len(breq.Items), s.cfg.MaxBatch)
		return
	}
	if inject.Kind == faultinject.Error {
		s.writeError(w, r, s.newInjectedError(http.StatusInternalServerError, "injected fault: error"))
		return
	}
	s.reqBatchItems.Add(int64(len(breq.Items)))
	batchID := requestID(r)

	// Validate every item through the single-call path and fold the valid
	// ones into work groups. Validation faults become that item's envelope
	// immediately; the whole-batch injection draw was consumed above, so
	// items validate injection-free.
	envs := make([]wire.Envelope, len(breq.Items))
	groups := make(map[string]*batchGroup)
	order := make([]*batchGroup, 0, len(breq.Items))
	for i, item := range breq.Items {
		envs[i].RequestID = fmt.Sprintf("%s/%d", batchID, i)
		prep, f := s.validateExplain(item, faultinject.Decision{})
		if f != nil {
			envs[i].Error = &f.err
			continue
		}
		key := groupKey(&prep)
		g, ok := groups[key]
		if !ok {
			g = &batchGroup{prep: prep}
			groups[key] = g
			order = append(order, g)
		}
		g.items = append(g.items, i)
	}

	// Fan the groups out per dataset, bounded by the slots of each dataset's
	// gate: distinct work runs concurrently on ordinary execution slots, but
	// one batch can never hold more of a dataset than that many requests
	// could.
	byDataset := make(map[*dataset][]*batchGroup)
	for _, g := range order {
		byDataset[g.prep.ds] = append(byDataset[g.prep.ds], g)
	}
	var wg sync.WaitGroup
	for ds, list := range byDataset {
		work := make(chan *batchGroup, len(list))
		for _, g := range list {
			work <- g
		}
		close(work)
		for n := min(ds.gate.Slots(), len(list)); n > 0; n-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for g := range work {
					s.runBatchGroup(r, g, inject, envs)
				}
			}()
		}
	}
	wg.Wait()
	s.writeData(w, r, wire.BatchExplainResponse{Items: envs})
}

// runBatchGroup runs one distinct work group through the explain pipeline
// once and fans the encoded report (or the one failure, counted once) out
// to every item envelope of the group. envs is written at the group's own
// indices only, so concurrent groups never contend.
func (s *Server) runBatchGroup(r *http.Request, g *batchGroup, inject faultinject.Decision, envs []wire.Envelope) {
	payload, degraded, f := s.runExplain(r, &g.prep, inject, nil, nil)
	if f == nil && degraded {
		// runExplain counted one degraded answer; this run serves len(items).
		s.degradedServed.Add(int64(len(g.items) - 1))
	}
	for _, i := range g.items {
		if f != nil {
			envs[i].Error = &f.err
		} else {
			envs[i].Data = payload
		}
	}
}
