package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// clients is the load the issue fixes: two closed-loop callers on two
// connections, each sending its next request when the last one is answered
// — a debugging session and a dashboard, not an open arrival process. It is
// also all a 2-core box can drive without the generator starving the daemon.
const clients = 2

// referenceEvery is the share of requests checked against the independent
// map-based engine (match.ReferenceCount) on top of the compiled one.
const referenceEvery = 50

// newClient is the net/http client of everything that is not timed load:
// readiness polls, /v1/stats, the stream probe.
func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second}
}

// conn is one keep-alive HTTP/1.1 connection of a closed-loop client, written
// against net.Conn. The load does not go through net/http's client because
// that allocates about 10 KB per request: at 4 000 requests a second the
// harness either collects garbage in the middle of a pass or, with its
// collector held off, grows by 35 MB a second and spends a third of its time
// faulting fresh pages in — both were measured, both are CPU taken from the
// daemon at moments that differ from run to run. A conn reuses its buffers
// and allocates nothing per request.
type conn struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	out  []byte // the request being written
	body []byte // the answer's body; valid until the next post
}

func dial(base string) (*conn, error) {
	c := &conn{addr: strings.TrimPrefix(base, "http://")}
	return c, c.redial()
}

func (c *conn) redial() error {
	c.close()
	nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
	if err != nil {
		return err
	}
	c.c = nc
	if c.r == nil {
		c.r = bufio.NewReaderSize(nc, 64<<10)
	} else {
		c.r.Reset(nc)
	}
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c = nil
	}
}

// requestTimeout bounds one round trip; the daemon's own deadline is 30 s.
const requestTimeout = 60 * time.Second

// post sends one request and reads the whole answer. The body it returns is
// the conn's buffer. After a transport error the connection is closed; the
// next post dials again.
func (c *conn) post(path string, body []byte) (status int, answer []byte, err error) {
	if c.c == nil {
		if err := c.redial(); err != nil {
			return 0, nil, err
		}
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	c.c.SetDeadline(time.Now().Add(requestTimeout))
	c.out = append(c.out[:0], "POST "...)
	c.out = append(c.out, path...)
	c.out = append(c.out, " HTTP/1.1\r\nHost: "...)
	c.out = append(c.out, c.addr...)
	c.out = append(c.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.out = strconv.AppendInt(c.out, int64(len(body)), 10)
	c.out = append(c.out, "\r\n\r\n"...)
	c.out = append(c.out, body...)
	if _, err := c.c.Write(c.out); err != nil {
		return 0, nil, err
	}
	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked, last := -1, false, false
	for {
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return 0, nil, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		name, value, _ := bytes.Cut(line, []byte(":"))
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(value)); err != nil || length < 0 {
				return 0, nil, fmt.Errorf("malformed Content-Length %q", value)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			last = bytes.EqualFold(value, []byte("close"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			if line, err = c.r.ReadSlice('\n'); err != nil {
				return 0, nil, err
			}
			size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			n, err := strconv.ParseUint(string(size), 16, 31)
			if err != nil {
				return 0, nil, fmt.Errorf("malformed chunk size %q", line)
			}
			// The chunk and its CRLF; after the last chunk, an empty trailer.
			if err = c.readBody(int(n)); err != nil {
				return 0, nil, err
			}
			if _, err = c.r.Discard(2); err != nil {
				return 0, nil, err
			}
			if n == 0 {
				break
			}
		}
	case length >= 0:
		if err = c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, fmt.Errorf("answer with status %d has neither a length nor chunks", status)
	}
	if last {
		c.close()
	}
	return status, c.body, nil
}

// readBody appends the next n bytes of the connection to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	c.body = slices.Grow(c.body, n)[:at+n]
	_, err := io.ReadFull(c.r, c.body[at:])
	return err
}

// sample is one request sent and what came back.
type sample struct {
	req    *request
	idx    int // position in the corpus sequence
	lat    time.Duration
	status int // 0 = transport failure
	// count is a match answer's data.count (-1 when the body carries none).
	count int
	// body is kept where the check needs more than the count: explains,
	// writes, failures, and the match answers of the reference sample.
	body []byte
}

// countKey precedes the only "count" key a /v1/match answer carries (result
// graphs hold "vertices" and "edges" only), so the count can be read without
// decoding up to 100 result graphs per answer inside the timed loop.
var countKey = []byte(`"count":`)

func scanCount(body []byte) int {
	i := bytes.Index(body, countKey)
	if i < 0 {
		return -1
	}
	n, digits := 0, 0
	for _, b := range body[i+len(countKey):] {
		if b < '0' || b > '9' {
			break
		}
		n, digits = n*10+int(b-'0'), digits+1
	}
	if digits == 0 || digits > 9 {
		return -1
	}
	return n
}

// keeper copies the answers a pass keeps into large blocks, so that keeping
// one costs a copy and not an allocation. A nil keeper just clones.
type keeper struct{ block []byte }

const keeperBlock = 8 << 20

func (k *keeper) keep(b []byte) []byte {
	if k == nil {
		return bytes.Clone(b)
	}
	if len(b) > cap(k.block)-len(k.block) {
		k.block = make([]byte, 0, max(keeperBlock, len(b)))
	}
	at := len(k.block)
	k.block = append(k.block, b...)
	return k.block[at:len(k.block):len(k.block)]
}

// send posts one request and records the answer.
func (c *conn) send(r *request, idx int, k *keeper) sample {
	s := sample{req: r, idx: idx, count: -1}
	began := time.Now()
	status, body, err := c.post(r.path(), r.body)
	s.lat = time.Since(began)
	if err != nil {
		s.body = []byte(err.Error())
		return s
	}
	s.status = status
	if r.kind == "match" && status == http.StatusOK {
		s.count = scanCount(body)
		if idx%referenceEvery != 0 && s.count >= 0 {
			return s
		}
	}
	s.body = k.keep(body)
	return s
}

// passed is what one pass over the corpus leaves behind.
type passed struct {
	samples []sample
	// wall is the time from the first send to the last answer.
	wall time.Duration
	// clientCPU is the CPU time the harness itself spent during the pass,
	// nearly all of it in the clients' send and receive path: a fixed piece of
	// work per request, and so a clock for the speed of the box (see boxSpeed).
	clientCPU time.Duration
}

// pass drives the corpus from sequence position from with the closed-loop
// clients until limit requests are sent (limit > 0), length has passed
// (length > 0), or a unique corpus runs out. Positions are handed out in
// order and every position handed out is sent, so the next unsent position
// is from + len(samples).
func pass(base string, c *corpus, from, limit int, length time.Duration) (*passed, error) {
	conns := make([]*conn, clients)
	for k := range conns {
		var err error
		if conns[k], err = dial(base); err != nil {
			return nil, err
		}
		defer conns[k].close()
	}
	// The harness shares the cores with the daemon, and its heap holds two
	// data graphs and the corpus: a collection of its own in the middle of a
	// pass is CPU taken from the daemon at random. Collect now, then not again
	// until the pass is over; a pass allocates only the answers it keeps.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var next atomic.Int64
	next.Store(int64(from))
	perClient := make([][]sample, clients)
	cpu0, err := cpuClock(0)
	if err != nil {
		return nil, err
	}
	began := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keep := new(keeper)
			for length <= 0 || time.Since(began) < length {
				i := int(next.Add(1)) - 1
				r := c.at(i)
				if r == nil || (limit > 0 && i >= from+limit) {
					return
				}
				perClient[k] = append(perClient[k], conns[k].send(r, i, keep))
			}
		}()
	}
	wg.Wait()
	p := &passed{wall: time.Since(began)}
	cpu1, err := cpuClock(0)
	if err != nil {
		return nil, err
	}
	p.clientCPU = time.Duration((cpu1 - cpu0) * float64(time.Second))
	for _, ss := range perClient {
		p.samples = append(p.samples, ss...)
	}
	return p, nil
}

// fetchStats reads the daemon's /v1/stats.
func fetchStats(client *http.Client, base string) (*wire.StatsResponse, error) {
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var env wire.Envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	var st wire.StatsResponse
	if err := json.Unmarshal(env.Data, &st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats data: %w", err)
	}
	return &st, nil
}

// checker is the correctness oracle: it counts every answer that is not the
// one the harness computes itself, and keeps the first few for the report.
type checker struct {
	dss       []*dataset
	attempted int
	failed    int
	notes     []string
	// first holds, per hot spec, the data of the first answer; every later
	// answer to the spec must carry the same bytes. Off (nil) when writes
	// run beside the reads: a write may legitimately change a search's
	// candidate values.
	first map[int][]byte
	// acked counts acknowledged writes per dataset.
	acked []int
}

// newChecker starts the oracle for one run over cp.
func newChecker(dss []*dataset, cp *corpus) *checker {
	ck := &checker{dss: dss, acked: make([]int, len(dss))}
	if cp.repeat && len(cp.writes) == 0 {
		ck.first = make(map[int][]byte)
	}
	return ck
}

func (ck *checker) fail(format string, args ...any) {
	ck.failed++
	if len(ck.notes) < 10 {
		ck.notes = append(ck.notes, fmt.Sprintf(format, args...))
	}
}

// countCap is the cap the daemon counts a request's query under: a find
// enumerates up to its limit, a count request carries its cap, and
// core.ExplainCtx counts the original query up to four times the upper bound.
func (r *request) countCap() int {
	switch {
	case r.kind == "explain":
		return r.expected.Upper * 4
	case r.find:
		return findLimit
	default:
		return countCapUnique
	}
}

// check verifies a pass's answers. The harness's own counts are computed
// here, after the timed loop and for sent requests only, on all cores.
func (ck *checker) check(samples []sample) {
	ck.attempted += len(samples)
	want := make([]int, len(samples))
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(samples); i += clients {
				if r := samples[i].req; r.q != nil {
					want[i] = ck.dss[r.dataset].eng.Matcher().Count(r.q, r.countCap())
				}
			}
		}()
	}
	wg.Wait()
	for i := range samples {
		ck.checkOne(&samples[i], want[i])
	}
}

func (ck *checker) checkOne(s *sample, want int) {
	r := s.req
	if s.status != http.StatusOK {
		ck.fail("request %d (%s): status %d: %.200s", s.idx, r.kind, s.status, s.body)
		return
	}
	ds := ck.dss[r.dataset]
	reference := s.idx%referenceEvery == 0
	if r.kind == "match" {
		if s.count != want {
			ck.fail("request %d (match): count %d, harness counts %d", s.idx, s.count, want)
			return
		}
		if reference {
			var env wire.Envelope
			var mr wire.MatchResponse
			if json.Unmarshal(s.body, &env) != nil || json.Unmarshal(env.Data, &mr) != nil || mr.Count != want || (r.find && len(mr.Results) != want) || mr.Partial {
				ck.fail("request %d (match): answer does not decode to %d results: %.200s", s.idx, want, s.body)
				return
			}
			if ref := ds.eng.Matcher().ReferenceCount(r.q, r.countCap()); ref != want {
				ck.fail("request %d (match): reference engine counts %d, compiled engine %d", s.idx, ref, want)
			}
		}
		return
	}
	var env wire.Envelope
	if err := json.Unmarshal(s.body, &env); err != nil || env.Error != nil || len(env.Data) == 0 {
		ck.fail("request %d (%s): no data in the answer: %.200s", s.idx, r.kind, s.body)
		return
	}
	if r.kind == "mutate" {
		var mr wire.MutateResponse
		if err := json.Unmarshal(env.Data, &mr); err != nil || len(mr.AddedVertices) != 2 || len(mr.AddedEdges) != 1 {
			ck.fail("request %d (mutate): unexpected answer: %.200s", s.idx, env.Data)
			return
		}
		ck.acked[r.dataset]++
		return
	}
	var rep wire.Report
	if err := json.Unmarshal(env.Data, &rep); err != nil {
		ck.fail("request %d (explain): %v", s.idx, err)
		return
	}
	problem := r.expected.Classify(want).String()
	switch {
	case rep.Degraded || rep.Partial:
		ck.fail("request %d (explain): degraded %v partial %v", s.idx, rep.Degraded, rep.Partial)
	case rep.Cardinality != want || rep.Problem != problem:
		ck.fail("request %d (explain): %s/%d, harness has %s/%d", s.idx, rep.Problem, rep.Cardinality, problem, want)
	case reference && ds.eng.Matcher().ReferenceCount(r.q, r.countCap()) != want:
		ck.fail("request %d (explain): reference engine disagrees with the compiled engine's %d", s.idx, want)
	case ck.first != nil && r.spec >= 0:
		if prev, ok := ck.first[r.spec]; !ok {
			ck.first[r.spec] = env.Data
		} else if !bytes.Equal(prev, env.Data) {
			ck.fail("request %d (explain): answer to hot spec %d differs from the first one", s.idx, r.spec)
		}
	}
}

// assert counts one check that is not an answer to a request.
func (ck *checker) assert(ok bool, format string, args ...any) {
	ck.attempted++
	if !ok {
		ck.fail(format, args...)
	}
}

// checkStats asserts from /v1/stats what no single answer shows: every
// acknowledged write is an epoch, and the layers no workload uses — shard,
// resilience, faultinject, retry — stayed idle.
func (ck *checker) checkStats(st *wire.StatsResponse) {
	for di, ds := range ck.dss {
		d := st.Datasets[ds.name]
		ck.assert(int(d.Epoch-1) == ck.acked[di] && int(d.Mutations) == ck.acked[di],
			"%s: epoch %d, mutations %d, but %d writes were acknowledged", ds.name, d.Epoch, d.Mutations, ck.acked[di])
		ck.assert(d.Sharding == nil, "%s: sharded", ds.name)
	}
	r := st.Resilience
	ck.assert(r != nil && r.State == "healthy" && r.Shed+r.QueueFull+r.ExpiredQueued+r.ExpiredRunning+r.DegradedServed+r.Panics+r.Injected == 0,
		"resilience layer was not idle: %+v", r)
	ck.assert(st.Requests.Errors == 0 && st.Requests.Cancelled == 0,
		"daemon counted %d errors, %d cancelled", st.Requests.Errors, st.Requests.Cancelled)
}
