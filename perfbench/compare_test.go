package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func around(center, step float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = center + step*float64(i%3-1) // center-step, center, center+step, ...
	}
	return v
}

func TestCompareVerdicts(t *testing.T) {
	lower := &bound{Name: "verdict_s_p50", Better: "lower", Bound: 0.1}
	higher := &bound{Name: "jobs_per_s", Better: "higher", Bound: 0.1}
	cases := []struct {
		name       string
		base, next []float64
		b          *bound
		want       string
	}{
		{"faster on every pair", around(1.0, 0.01, 10), around(0.8, 0.01, 10), lower, better},
		{"same", around(1.0, 0.01, 10), around(1.0, 0.01, 10), lower, unchanged},
		{"slower beyond the bound", around(1.0, 0.01, 10), around(1.2, 0.01, 10), lower, worse},
		{"slower within the bound", around(1.0, 0.01, 10), around(1.05, 0.01, 10), lower, unchanged},
		{"throughput up", around(10, 0.1, 10), around(12, 0.1, 10), higher, better},
		{"throughput down", around(10, 0.1, 10), around(8, 0.1, 10), higher, worse},
		{"gain on too few pairs", around(1.0, 0.01, 5), around(0.8, 0.01, 5), lower, unchanged},
		{"noisy and overlapping", []float64{1, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1, 1.4},
			[]float64{0.9, 1.4, 0.6, 1.2, 0.8, 1.1, 0.8, 1.0, 0.9, 1.3}, lower, unresolved},
		{"noisy but disjoint", []float64{2, 2.6, 2.2, 2.9}, []float64{1, 1.5, 1.2, 1.4}, lower, better},
		{"no bound", around(1, 0.01, 10), around(2, 0.01, 10), nil, noBound},
	}
	for _, c := range cases {
		if got := compare(c.base, c.next, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestGainNeedsNineOfTenPairs: a change that wins only 8 of 10 pairs is not
// a gain, even with a clearly lower median.
func TestGainNeedsNineOfTenPairs(t *testing.T) {
	base := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	next := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1, 1.01}
	b := &bound{Better: "lower", Bound: 0.1}
	if got := compare(base, next, b).verdict; got != unchanged {
		t.Errorf("8 of 10 pairs: verdict %q, want %q", got, unchanged)
	}
	next[8] = 0.9
	if got := compare(base, next, b).verdict; got != better {
		t.Errorf("9 of 10 pairs: verdict %q, want %q", got, better)
	}
}

func TestReadRunsAndWriteComparison(t *testing.T) {
	out := func(workload string, p50 float64) string {
		return `{"env":{"workload":"` + workload + `"},"detail":{}}` + "\n" +
			`{"correct":true,"attempted":5,"failed":0,"metrics":{"verdict_s_p50":{"value":` +
			strconv.FormatFloat(p50, 'g', -1, 64) + `,"unit":"s"}}}` + "\n"
	}
	var base, next strings.Builder
	base.WriteString("go: building\n")
	for i := range 10 {
		base.WriteString(out("check-prune", 1+0.001*float64(i)))
		next.WriteString(out("check-prune", 0.5+0.001*float64(i)))
	}
	br, err := readRuns(strings.NewReader(base.String()))
	if err != nil {
		t.Fatal(err)
	}
	nr, err := readRuns(strings.NewReader(next.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(br["check-prune"]["verdict_s_p50"]); n != 10 {
		t.Fatalf("read %d base runs, want 10", n)
	}
	var buf bytes.Buffer
	def := bench{EndToEnd: []bound{{Name: "verdict_s_p50", Better: "lower", Bound: 0.1}}}
	if err := writeComparison(&buf, def, br, nr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "check-prune") || !strings.Contains(buf.String(), " better") {
		t.Errorf("comparison output lacks the better verdict:\n%s", buf.String())
	}
	if _, err := readRuns(strings.NewReader(`{"correct":true,"metrics":{}}`)); err == nil {
		t.Error("a result line before any env line was accepted")
	}
}
