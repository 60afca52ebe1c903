package main

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface holds whyload's flag set to a golden list — adding or
// removing a flag is a decision, made here — and to its callers: every flag
// the CI workflow, the README and the verify skill pass to whyload must be
// defined.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "allow-partial", "batch-size", "concurrency", "dup-frac",
		"duration", "mix", "mutate-frac", "out", "requests",
	}
	fs := flag.NewFlagSet("whyload", flag.ContinueOnError)
	defineFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Fatalf("whyload flags:\n got %v\nwant %v", got, want)
	}

	// An invocation is "whyload" followed by -flag [value] pairs, across
	// line continuations, in a script line or quoted in prose.
	invocation := regexp.MustCompile(`whyload((?: +-[a-z][a-z-]*(?: +[^-\s]\S*)?)+)`)
	flagWord := regexp.MustCompile(`^-[a-z][a-z-]*$`)
	for _, path := range []string{"../../.github/workflows/ci.yml", "../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var passed []string
		for _, m := range invocation.FindAllStringSubmatch(strings.ReplaceAll(string(src), "\\\n", " "), -1) {
			for _, w := range strings.Fields(m[1]) {
				if flagWord.MatchString(w) {
					passed = append(passed, w[1:])
				}
			}
		}
		slices.Sort(passed)
		passed = slices.Compact(passed)
		t.Logf("%s passes %v", path, passed)
		if len(passed) == 0 {
			t.Errorf("%s: no whyload invocation found", path)
		}
		for _, name := range passed {
			if fs.Lookup(name) == nil {
				t.Errorf("%s passes -%s to whyload, which does not define it", path, name)
			}
		}
	}
}

// TestSendTransportClassification pins the outcome classifier's transport
// rules: a daemon dying mid-answer must classify as a transport casualty —
// whatever the status line promised — and never inflate the unexplained-5xx
// or bad-JSON counts reserved for answers the daemon actually composed.
func TestSendTransportClassification(t *testing.T) {
	t.Run("5xx with non-JSON body", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(500)
			w.Write([]byte("upstream connect error or disconnect"))
		}))
		defer ts.Close()
		res := send(ts.Client(), ts.URL, []byte("{}"), false)
		if !res.transport || res.badJSON {
			t.Fatalf("want transport, got %+v", res)
		}
		if res.status != 500 {
			t.Fatalf("status %d must be retained", res.status)
		}
	})

	t.Run("5xx connection dead mid-read", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Promise more body than arrives, then kill the connection: the
			// client reads the 500 status line but ReadAll fails.
			w.Header().Set("Content-Length", "1000")
			w.WriteHeader(500)
			w.Write([]byte(`{"truncated`))
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}))
		defer ts.Close()
		res := send(ts.Client(), ts.URL, []byte("{}"), false)
		if !res.transport || res.badJSON {
			t.Fatalf("want transport, got %+v", res)
		}
		if res.status != 500 {
			t.Fatalf("status %d must be retained", res.status)
		}
	})

	t.Run("2xx with invalid JSON stays badJSON", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("not json"))
		}))
		defer ts.Close()
		res := send(ts.Client(), ts.URL, []byte("{}"), false)
		if res.transport || !res.badJSON {
			t.Fatalf("want badJSON, got %+v", res)
		}
	})

	t.Run("refused connection", func(t *testing.T) {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		url := ts.URL
		ts.Close()
		res := send(http.DefaultClient, url, []byte("{}"), false)
		if !res.transport {
			t.Fatalf("want transport, got %+v", res)
		}
	})
}

func TestNormalizeTransport(t *testing.T) {
	if got := normalize(clsTransport, true); got != clsTransport {
		t.Fatalf("chaos: %v, want clsTransport kept", got)
	}
	if got := normalize(clsTransport, false); got != clsError {
		t.Fatalf("smoke: %v, want clsError", got)
	}
}

// TestParseReportPartial pins the partial-answer contract checks: partial
// answers must carry a coverage map either top-level (match) or inside the
// quality bound (explain); a partial answer without one is a violation.
func TestParseReportPartial(t *testing.T) {
	cases := []struct {
		name            string
		body            string
		partial         bool
		missingCoverage bool
	}{
		{"non-partial", `{"count": 3}`, false, false},
		{"match partial with coverage", `{"count": 3, "partial": true, "coverage": {"s0": true, "s1": false}}`, true, false},
		{"explain partial with coverage", `{"partial": true, "qualityBound": {"budget": 60, "coverage": {"s0": true, "s1": false}}}`, true, false},
		{"partial missing coverage", `{"count": 3, "partial": true}`, true, true},
		{"enveloped partial", `{"requestId": "r1", "data": {"partial": true, "coverage": {"s0": false}}}`, true, false},
	}
	for _, tc := range cases {
		var res result
		res.parseReport([]byte(tc.body))
		if res.partial != tc.partial || res.missingCoverage != tc.missingCoverage {
			t.Errorf("%s: partial=%v missingCoverage=%v, want %v/%v", tc.name, res.partial, res.missingCoverage, tc.partial, tc.missingCoverage)
		}
	}
}
