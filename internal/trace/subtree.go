// Exported subtree lease/merge hooks: the surface a distributed schedule
// search builds on (see internal/dist). The in-process explorer (stateful.go,
// parallel.go) already splits the DFS tree into disjoint subtree prefixes and
// merges per-subtree results deterministically; this file exports that
// protocol piecewise so a coordinator in another process — or on another
// machine — can drive it over a transport:
//
//   - SubtreePlan computes the canonical frontier of subtree roots and the
//     wave width a distributed run must use to reproduce the single-process
//     report byte for byte (pruned explorations share closed states only at
//     wave barriers, so the wave structure is part of the report's identity).
//   - RunSubtree executes one leased subtree exactly as a local pool worker
//     would — same loop, same budget lower bound, same pruning against a
//     frozen visited-state view — and returns a wire-serializable outcome.
//   - MergeOutcomes folds outcomes back, in canonical order, through the
//     same deterministic merge the local explorer uses.
//
// Because every field an outcome carries is positioned by run ordinal, the
// merge is independent of which worker produced which subtree, of arrival
// order, and of how often a subtree was re-leased after a worker died: a
// complete outcome for a given (root, options, frozen view, budget base) is
// a pure value, so duplicates are identical and re-execution is idempotent.
package trace

import (
	"errors"
	"sort"
)

// ErrInterrupted is returned (alongside the partial report) when
// ExploreOpts.Interrupted — or a distributed coordinator's context — stops a
// search before it finishes.
var ErrInterrupted = errors.New("trace: exploration interrupted")

// FpEntry is one visited-state closure: configuration fingerprint fp has
// been fully explored to Rem further scheduler levels. Entries max-merge
// (keep the larger Rem), which commutes, so a log of entries can be applied
// in any order, any number of times, and converge to the same table.
type FpEntry struct {
	Fp  uint64
	Rem int
}

// SubtreeViolation is one violation found inside a leased subtree, in wire
// form: positioned by run ordinal with the cumulative counters the merge
// needs to re-cut the search exactly, the error flattened to its message.
type SubtreeViolation struct {
	Ord         int
	TruncCum    int
	PrunedCum   int
	DistinctCum int
	Schedule    []int
	Err         string
}

// SubtreeOutcome is the wire-serializable result of exploring one leased
// subtree to completion: the aggregate counts, the per-run detail the
// deterministic merge needs (violation ordinals, truncation and prune
// bitsets, cumulative distinct counts), a failed run if one ended the
// subtree, and the subtree's newly closed states for the coordinator's
// visited-state table.
type SubtreeOutcome struct {
	Runs      int
	Truncated int
	Exhausted bool
	Pruned    int
	Distinct  int

	Violations []SubtreeViolation `json:",omitempty"`
	TruncBits  []uint64           `json:",omitempty"`
	PruneBits  []uint64           `json:",omitempty"`
	DistCums   []int32            `json:",omitempty"`

	// RunErr is a failed run's message ("" = none); ErrOrd positions it (-1 =
	// none) and the cumulative counters position the merge at it.
	RunErr         string `json:",omitempty"`
	ErrOrd         int
	ErrTruncCum    int
	ErrPrunedCum   int
	ErrDistinctCum int

	// Closures are the subtree's newly closed states, sorted by fingerprint,
	// for publication into the coordinator's table at the wave barrier.
	Closures []FpEntry `json:",omitempty"`

	// Stopped marks an outcome abandoned by ExploreOpts.Interrupted: it is
	// incomplete and must never be merged as (or reported to a coordinator
	// as) a finished subtree. A distributed worker discards stopped outcomes
	// — the coordinator re-leases the subtree elsewhere.
	Stopped bool `json:",omitempty"`
}

// Cut reports whether this outcome ends the search at its subtree: a failed
// run, the MaxViolations cutoff, or a MaxRuns budget stop (the only way a
// completed subtree is not exhausted). Subtrees after a cut one are never
// merged, so a coordinator can stop leasing beyond it.
func (o *SubtreeOutcome) Cut(maxViolations int) bool {
	if maxViolations <= 0 {
		maxViolations = 1
	}
	return o.RunErr != "" || len(o.Violations) >= maxViolations || !o.Exhausted
}

// outcome converts the internal per-subtree result to its wire form.
func (sr *subtreeResult) outcome() *SubtreeOutcome {
	o := &SubtreeOutcome{
		Runs:           sr.runs,
		Truncated:      sr.truncated,
		Exhausted:      sr.exhausted,
		Pruned:         sr.pruned,
		Distinct:       sr.distinct,
		TruncBits:      sr.truncBits,
		PruneBits:      sr.pruneBits,
		DistCums:       sr.distCums,
		ErrOrd:         sr.errOrd,
		ErrTruncCum:    sr.errTruncCum,
		ErrPrunedCum:   sr.errPrunedCum,
		ErrDistinctCum: sr.errDistinctCum,
		Stopped:        sr.stopped,
	}
	if sr.runErr != nil {
		o.RunErr = sr.runErr.Error()
	}
	for _, sv := range sr.viols {
		o.Violations = append(o.Violations, SubtreeViolation{
			Ord: sv.ord, TruncCum: sv.truncCum,
			PrunedCum: sv.prunedCum, DistinctCum: sv.distinctCum,
			Schedule: sv.v.Schedule, Err: sv.v.Err.Error(),
		})
	}
	return o
}

// internal converts a wire outcome back to the merge's input form. Errors
// cross the wire as messages, so reconstructed errors compare (and render)
// equal to the local ones but lose their wrapped chain.
func (o *SubtreeOutcome) internal() *subtreeResult {
	sr := &subtreeResult{
		runs:           o.Runs,
		truncated:      o.Truncated,
		exhausted:      o.Exhausted,
		pruned:         o.Pruned,
		distinct:       o.Distinct,
		truncBits:      o.TruncBits,
		pruneBits:      o.PruneBits,
		distCums:       o.DistCums,
		errOrd:         o.ErrOrd,
		errTruncCum:    o.ErrTruncCum,
		errPrunedCum:   o.ErrPrunedCum,
		errDistinctCum: o.ErrDistinctCum,
		stopped:        o.Stopped,
	}
	if o.RunErr != "" {
		sr.runErr = errors.New(o.RunErr)
	}
	for _, v := range o.Violations {
		sr.viols = append(sr.viols, subViolation{
			ord: v.Ord, truncCum: v.TruncCum,
			prunedCum: v.PrunedCum, distinctCum: v.DistinctCum,
			v: Violation{Schedule: v.Schedule, Err: errors.New(v.Err)},
		})
	}
	return sr
}

// SubtreePlan computes the frontier of disjoint subtree-root prefixes, in
// canonical DFS order, and the wave width a distributed exploration must use
// to reproduce the single-process Explore report exactly. It also validates
// the option contracts (engine kind, prune/checkpoint capabilities), so a
// coordinator fails fast instead of shipping a broken job to workers.
//
// For a pruned search the frontier size and wave width are the fixed,
// worker-independent constants of the in-process explorer — the
// cache-sharing structure is part of the report — and closed states may only
// be shared across (never within) waves, with budget bases frozen at wave
// starts. For an unpruned search the report is independent of the sharding,
// so the plan is one wave over a modest frontier and any valid budget lower
// bound works. A frontier of length <= 1 means the tree is too small to
// shard: run Explore locally instead.
func SubtreePlan(nprocs int, factory Factory, opts ExploreOpts) (frontier [][]int, waveWidth int, err error) {
	if err := validate(nprocs, factory, opts); err != nil {
		return nil, 0, err
	}
	if nprocs <= 1 {
		return [][]int{{}}, 1, nil
	}
	target := distFrontierTarget
	if opts.Prune {
		target = pruneFrontierTarget
	}
	frontier, err = expandFrontier(nprocs, factory, opts, target)
	if err != nil {
		return nil, 0, err
	}
	if opts.Prune {
		return frontier, pruneWaveWidth, nil
	}
	return frontier, max(len(frontier), 1), nil
}

// distFrontierTarget is the frontier size of an unpruned distributed
// exploration: enough subtrees that a handful of workers with a few slots
// each stay busy, few enough that probe runs stay negligible. Unpruned
// reports do not depend on this value.
const distFrontierTarget = 64

// RunSubtree explores the subtree rooted at root to completion, exactly as a
// local pool worker would: the same DFS loop, with the MaxRuns budget
// checked against the leased base (a lower bound on the runs the merge will
// credit before this subtree) and, when opts.Prune is set, pruning against
// frozen — the caller's read-only view of previously closed states, which
// must not change while the call runs (the coordinator guarantees this by
// publishing closures only at wave barriers). The outcome carries the
// subtree's own closures; the caller owns publishing them.
func RunSubtree(nprocs int, factory Factory, opts ExploreOpts, root []int, base int, frozen func(fp uint64) (int, bool)) (*SubtreeOutcome, error) {
	if err := validate(nprocs, factory, opts); err != nil {
		return nil, err
	}
	sh := newShared([][]int{root}, opts)
	ex := newExplorer(nprocs, factory, opts)
	if opts.Prune {
		var src fpSource
		if frozen != nil {
			src = fpFunc(frozen)
		}
		ex.cache = &stateCache{global: src, local: make(map[uint64]int)}
	}
	o := ex.explore(sh, 0, func() int { return base }).outcome()
	if ex.cache != nil {
		o.Closures = make([]FpEntry, 0, len(ex.cache.local))
		for fp, rem := range ex.cache.local {
			o.Closures = append(o.Closures, FpEntry{Fp: fp, Rem: rem})
		}
		sort.Slice(o.Closures, func(i, j int) bool { return o.Closures[i].Fp < o.Closures[j].Fp })
	}
	return o, nil
}

// MergeOutcomes folds per-subtree outcomes, in canonical frontier order,
// into the report the single-process search would have produced — the same
// deterministic merge the in-process explorer uses. Outcomes past
// the first cutoff may be nil (they are never read). With interrupted set,
// a missing outcome ends the merge with the partial report so far and
// ErrInterrupted instead of an internal error.
//
// Note the Distinct field of an exhausted pruned report is defined as the
// size of the fully merged visited-state table; the caller owns that
// correction (the merge only sees per-subtree sums).
func MergeOutcomes(frontier [][]int, outcomes []*SubtreeOutcome, opts ExploreOpts, interrupted bool) (*ExploreReport, error) {
	results := make([]*subtreeResult, len(outcomes))
	for i, o := range outcomes {
		if o != nil {
			results[i] = o.internal()
		}
	}
	return mergeSubtrees(frontier, results, opts.MaxRuns, maxViolations(opts), interrupted)
}
