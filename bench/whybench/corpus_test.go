package main

import (
	"fmt"
	"testing"
)

// testDatasets are the smoke-scale graphs: the generator's properties do not
// depend on graph size.
func testDatasets() []*dataset {
	var dss []*dataset
	for _, name := range []string{"ldbc", "dbpedia"} {
		dss = append(dss, newDataset(name, generateGraph(name, 0.5)))
	}
	return dss
}

func buildTestCorpus(dss []*dataset, workload string, seed int64) *corpus {
	cfg := config{workload: workload, seed: seed, seconds: 1, smoke: true}
	return cfg.buildCorpus(dss)
}

func TestCorpusIsDeterministicInTheSeed(t *testing.T) {
	dss := testDatasets()
	for _, workload := range []string{"explain_unique", "match_unique"} {
		a, b, c := buildTestCorpus(dss, workload, 7), buildTestCorpus(dss, workload, 7), buildTestCorpus(dss, workload, 8)
		if a.info.SHA256 != b.info.SHA256 {
			t.Errorf("%s: seed 7 gave %s and then %s", workload, a.info.SHA256, b.info.SHA256)
		}
		if a.info.SHA256 == c.info.SHA256 {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus %s", workload, a.info.SHA256)
		}
	}
	// The hot specs do not depend on the seed at all.
	if a, b := buildTestCorpus(dss, "explain_repeat", 1), buildTestCorpus(dss, "explain_repeat", 2); a.info.SHA256 != b.info.SHA256 {
		t.Errorf("explain_repeat differs between seeds")
	}
}

func TestUniqueCorporaFollowTheRules(t *testing.T) {
	dss := testDatasets()
	for _, workload := range []string{"explain_unique", "match_unique"} {
		c := buildTestCorpus(dss, workload, 3)
		if len(c.requests) != 32+smokeRequests {
			t.Errorf("%s: %d requests, want %d", workload, len(c.requests), 32+smokeRequests)
		}
		if c.info.DistinctKeys != len(c.requests) {
			t.Errorf("%s: %d distinct keys among %d requests", workload, c.info.DistinctKeys, len(c.requests))
		}
		seen := make(map[string]bool)
		for i, r := range c.requests {
			if !r.q.IsConnected() {
				t.Errorf("%s: request %d is not connected:\n%s", workload, i, r.q)
			}
			if err := r.q.Validate(); err != nil {
				t.Errorf("%s: request %d: %v", workload, i, err)
			}
			key := fmt.Sprintf("%d/%s", r.dataset, r.q.Key())
			if seen[key] {
				t.Errorf("%s: request %d repeats a canonical key", workload, i)
			}
			seen[key] = true
			if workload == "explain_unique" {
				card := dss[r.dataset].eng.Matcher().Count(r.q, r.countCap())
				if got := r.expected.Classify(card).String(); got != r.class() || got == "satisfied" {
					t.Errorf("request %d: bounds %+v with cardinality %d pose %q, corpus says %q", i, r.expected, card, got, r.class())
				}
			}
		}
	}
}

func TestMutateCorpusWritesEveryHundredth(t *testing.T) {
	c := buildTestCorpus(testDatasets(), "repeat_mutate", 1)
	writes := 0
	for i := 0; i < 1000; i++ {
		r := c.at(i)
		if isWrite := r.kind == "mutate"; isWrite != ((i+1)%mutateEvery == 0) {
			t.Fatalf("request %d: kind %s", i, r.kind)
		} else if isWrite {
			if want := writes % 2; r.dataset != want {
				t.Errorf("write %d goes to dataset %d, want %d", writes, r.dataset, want)
			}
			writes++
		}
	}
	// Reads keep cycling the 16 specs in order across the writes.
	if a, b := c.at(98), c.at(100); b.spec != (a.spec+1)%16 {
		t.Errorf("specs around a write: %d then %d", a.spec, b.spec)
	}
}
