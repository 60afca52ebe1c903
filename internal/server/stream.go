package server

// POST /v1/explain/stream: the anytime rendering of the explain pipeline.
// Every time the kernel's incumbent improves, the new best explanation is
// flushed to the client as an `improvement` SSE event with a monotone
// quality bound, and the final ranked report follows as the `done` event
// with exactly the bytes /v1/explain puts in the envelope's data field. The
// stream opens once the request is admitted: failures before that (bad spec,
// queue-full 429, queued deadline) answer plain JSON envelopes,
// failures after it are `error` events carrying the envelope shape. A client
// that disconnects mid-stream cancels the request context, which stops the
// search within one poll stride of matcher work; so does a failed event
// write (proxy buffer gone).

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/wire"
)

func (s *Server) handleExplainStream(w http.ResponseWriter, r *http.Request) {
	inject := s.begin(epStream)
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		s.fail(w, r, http.StatusInternalServerError, wire.CodeInternal, "response writer cannot stream")
		return
	}
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
	// send writes and flushes one server-sent event. It runs on this
	// goroutine only (runExplain calls improved inline), so events never
	// interleave.
	send := func(event string, data []byte) error {
		_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		if err == nil {
			flusher.Flush()
		}
		return err
	}
	opened := false
	payload, _, f := s.runExplain(r, &prep, inject, func() {
		opened = true
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering
		w.WriteHeader(http.StatusOK)
		flusher.Flush()
	}, func(ev wire.StreamEvent) error {
		blob, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		return send("improvement", blob)
	})
	// A terminal event that cannot be written has no one left to read it.
	switch {
	case f == nil:
		_ = send("done", payload)
	case opened:
		// The 200 is on the wire: the failure travels as an event.
		if blob, err := json.Marshal(wire.Envelope{RequestID: requestID(r), Error: &f.err}); err == nil {
			_ = send("error", blob)
		}
	default:
		s.writeError(w, r, f)
	}
}
