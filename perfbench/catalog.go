package main

import (
	"fmt"
	"slices"

	"revisionist/internal/dist/wire"
	"revisionist/internal/harness"
	"revisionist/internal/protocol"
)

// entry is one check job of a workload catalog together with its expected
// answer. The answers are written out by hand (cross-checked against the
// README tables and the cmd testdata goldens) and never computed at run
// time by the code under test: a report that differs from them is a failed
// job, whatever produced it.
type entry struct {
	Name string
	Opts harness.Options
	Want answer
}

// answer is the part of a check report the benchmark verifies.
type answer struct {
	Runs, Truncated, Pruned, Distinct int
	Exhausted                         bool
	// Violations holds every violating schedule in report order; its length
	// is the violation count.
	Violations [][]int
}

// workload is a named catalog plus how it is driven.
type workload struct {
	Name    string
	Why     string
	Service bool // driven through a jobd daemon instead of harness.Check
	Catalog []entry
}

func opts(proto string, n, k, depth int) harness.Options {
	return harness.Options{Protocol: proto, Params: protocol.Params{N: n, K: k}, MaxDepth: depth}
}

func pruned(o harness.Options) harness.Options    { o.Prune = true; return o }
func symmetric(o harness.Options) harness.Options { o.Prune, o.Symmetry = true, true; return o }

// firstvalueConsensusViolations are the first three violating schedules of
// firstvalue-consensus n=3 at depth 14 under pruning (modelcheck -witness).
var firstvalueConsensusViolations = [][]int{
	{0, 1, 0, 0, 1, 1, 2},
	{0, 1, 0, 0, 1, 2, 1},
	{0, 1, 0, 0, 2, 1, 1},
}

// workloads is the benchmark's fixed set of catalogs.
var workloads = []workload{
	{
		Name: "check-plain",
		Why:  "unpruned harness.Check: engine stepping, one factory build per schedule, plain explore loops; hashing and forks idle",
		Catalog: []entry{
			{"consensus n=2 d17", opts("consensus", 2, 0, 17), answer{Runs: 26832, Truncated: 26346, Exhausted: true}},
			{"paxos n=2 d16", opts("paxos", 2, 0, 16), answer{Runs: 15711, Truncated: 15225, Exhausted: true}},
			{"firstvalue n=4 d20", opts("firstvalue", 4, 0, 20), answer{Runs: 74976, Exhausted: true}},
			{"kset n=4 k=3 d10", opts("kset", 4, 3, 10), answer{Runs: 24949, Truncated: 24949, Exhausted: true}},
			{"consensus n=3 d16 maxruns=20000", capped(opts("consensus", 3, 0, 16), 20000), answer{Runs: 20000, Truncated: 19989}},
		},
	},
	{
		Name: "check-prune",
		Why:  "pruned harness.Check: visited-table lookups, System.Fingerprint and checkpoint Fork over 460 to 58600 states",
		Catalog: []entry{
			{"kset n=4 k=3 d20 prune", pruned(opts("kset", 4, 3, 20)), answer{Runs: 19590, Truncated: 6356, Pruned: 13057, Distinct: 2323, Exhausted: true}},
			{"firstvalue n=4 d20 prune", pruned(opts("firstvalue", 4, 0, 20)), answer{Runs: 4412, Pruned: 2464, Distinct: 3445, Exhausted: true}},
			{"consensus n=2 d18 prune", pruned(opts("consensus", 2, 0, 18)), answer{Runs: 1116, Truncated: 559, Pruned: 523, Distinct: 462, Exhausted: true}},
			{"firstvalue n=5 d20 prune", pruned(opts("firstvalue", 5, 0, 20)), answer{Runs: 71163, Pruned: 46297, Distinct: 58566, Exhausted: true}},
			{"kset n=4 k=3 d14 prune", pruned(opts("kset", 4, 3, 14)), answer{Runs: 4403, Truncated: 1795, Pruned: 2579, Distinct: 629, Exhausted: true}},
		},
	},
	{
		Name: "check-symmetry",
		Why:  "symmetry-reduced harness.Check: System.CanonicalFingerprint rehashes each state |G| times; plain fingerprint idle",
		Catalog: []entry{
			{"firstvalue n=4 d20 symmetry", symmetric(opts("firstvalue", 4, 0, 20)), answer{Runs: 399, Pruned: 270, Distinct: 183, Exhausted: true}},
			{"firstvalue n=5 d20 symmetry", symmetric(opts("firstvalue", 5, 0, 20)), answer{Runs: 984, Pruned: 742, Distinct: 701, Exhausted: true}},
			{"kset n=4 k=3 d20 symmetry", symmetric(opts("kset", 4, 3, 20)), answer{Runs: 15162, Truncated: 5015, Pruned: 10013, Distinct: 1745, Exhausted: true}},
		},
	},
	{
		Name:    "checkd-service",
		Why:     "jobd daemon, dist workers and clients over loopback TCP: wire framing, leases, wave barriers, fsynced journal",
		Service: true,
		Catalog: []entry{
			{"firstvalue n=4 d12 prune", pruned(opts("firstvalue", 4, 0, 12)), answer{Runs: 4412, Pruned: 2464, Distinct: 3445, Exhausted: true}},
			{"kset n=4 k=3 d12 symmetry", symmetric(opts("kset", 4, 3, 12)), answer{Runs: 1895, Truncated: 833, Pruned: 1052, Distinct: 277, Exhausted: true}},
			{"firstvalue n=4 d12 symmetry", symmetric(opts("firstvalue", 4, 0, 12)), answer{Runs: 399, Pruned: 270, Distinct: 183, Exhausted: true}},
			{"consensus n=2 d18 prune", pruned(opts("consensus", 2, 0, 18)), answer{Runs: 1116, Truncated: 559, Pruned: 523, Distinct: 462, Exhausted: true}},
			{"firstvalue-consensus n=3 d14 prune maxviol=3", violating(pruned(opts("firstvalue-consensus", 3, 0, 14)), 3),
				answer{Runs: 9, Distinct: 9, Violations: firstvalueConsensusViolations}},
		},
	},
}

func capped(o harness.Options, runs int) harness.Options { o.MaxRuns = runs; return o }
func violating(o harness.Options, n int) harness.Options { o.MaxViolations = n; return o }

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// verify compares a report, in wire form, against the expected answer.
func (a answer) verify(r *wire.Report) error {
	if r == nil {
		return fmt.Errorf("no report")
	}
	got := answer{Runs: r.Runs, Truncated: r.Truncated, Pruned: r.Pruned, Distinct: r.Distinct, Exhausted: r.Exhausted}
	for _, v := range r.Violations {
		got.Violations = append(got.Violations, v.Schedule)
	}
	if got.Runs != a.Runs || got.Truncated != a.Truncated || got.Pruned != a.Pruned ||
		got.Distinct != a.Distinct || got.Exhausted != a.Exhausted {
		return fmt.Errorf("report runs/truncated/pruned/distinct/exhausted = %d/%d/%d/%d/%v, want %d/%d/%d/%d/%v",
			got.Runs, got.Truncated, got.Pruned, got.Distinct, got.Exhausted,
			a.Runs, a.Truncated, a.Pruned, a.Distinct, a.Exhausted)
	}
	if !slices.EqualFunc(got.Violations, a.Violations, slices.Equal[[]int]) {
		return fmt.Errorf("violating schedules %v, want %v", got.Violations, a.Violations)
	}
	return nil
}

// verifyWitness checks that a daemon's witness artifact carries every
// violating schedule of the expected answer, in order.
func (a answer) verifyWitness(w *wire.Witness) error {
	if len(a.Violations) == 0 {
		return nil
	}
	if w == nil {
		return fmt.Errorf("violating job has no witness")
	}
	got := make([][]int, len(w.Violations))
	for i, v := range w.Violations {
		got[i] = v.Schedule
	}
	if !slices.EqualFunc(got, a.Violations, slices.Equal[[]int]) {
		return fmt.Errorf("witness schedules %v, want %v", got, a.Violations)
	}
	return nil
}
