package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestFlagSurface holds the daemon's flag set to a golden list — adding or
// removing a flag is a decision, made here — and to its two callers outside
// the module's own tests: the benchmark harness, which execs whydbd with a
// fixed command line, and the CI workflow's `ci-whydbd.sh start … -- <flags>`
// invocations. Removing a flag either of them passes fails here, not in a
// nightly.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr", "brownout-enter-hold", "brownout-exit-hold", "datasets",
		"degrade-at", "drain-delay", "inject", "latency-budget",
		"max-queue-wait", "peers", "queue-cap", "scale", "shards", "shed-at",
		"shutdown-grace", "snapshot", "workers",
	}
	fs := flag.NewFlagSet("whydbd", flag.ContinueOnError)
	defineFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !slices.Equal(got, want) {
		t.Fatalf("whydbd flags:\n got %v\nwant %v", got, want)
	}

	flagWord := regexp.MustCompile(`^-[a-z][a-z-]*$`)
	passed := func(words []string) (flags []string) {
		for _, w := range words {
			if w = strings.Trim(w, `",`); flagWord.MatchString(w) {
				flags = append(flags, w[1:])
			}
		}
		return flags
	}

	// bench/whybench/daemon.go: exec.Command(bin, "-addr", addr, …).
	src, err := os.ReadFile("../../bench/whybench/daemon.go")
	if err != nil {
		t.Fatal(err)
	}
	call := regexp.MustCompile(`exec\.Command\(bin,(.*)\)`).FindSubmatch(src)
	if call == nil {
		t.Fatal("bench/whybench/daemon.go: no exec.Command(bin, …) call found")
	}
	bench := passed(strings.Fields(string(call[1])))
	if !slices.Equal(bench, []string{"addr", "datasets", "scale", "latency-budget"}) {
		t.Fatalf("bench/whybench/daemon.go passes %v; this test expects -addr -datasets -scale -latency-budget", bench)
	}

	// .github/workflows/ci.yml: everything after `ci-whydbd.sh start … --`,
	// across line continuations. (The script passes -addr itself.)
	yml, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	starts := regexp.MustCompile(`ci-whydbd\.sh start [^\n]* -- ([^\n]*)`).
		FindAllStringSubmatch(strings.ReplaceAll(string(yml), "\\\n", " "), -1)
	if len(starts) == 0 {
		t.Fatal("ci.yml: no `ci-whydbd.sh start … --` invocation found")
	}
	ci := []string{"addr"}
	for _, m := range starts {
		ci = append(ci, passed(strings.Fields(m[1]))...)
	}

	slices.Sort(ci)
	ci = slices.Compact(ci)
	t.Logf("the benchmark passes %v, CI passes %v", bench, ci)
	for _, name := range append(bench, ci...) {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s is passed by the benchmark or by CI but whydbd does not define it", name)
		}
	}
}
