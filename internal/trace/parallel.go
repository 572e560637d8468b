// Sharding and merging: how the explorer (stateful.go) spreads one DFS over
// a worker pool and still reports exactly what a single subtree walk would.
// The frontier expander probes the first few decision levels into disjoint
// subtree-root prefixes in canonical DFS order; workers drain the subtrees;
// each subtree's result carries enough per-run detail (violation ordinals,
// truncation and prune bits) that the merge can re-cut the search at exactly
// the run where one walk over the whole tree would have stopped. So the
// report is byte-identical for any worker count: violations in canonical
// schedule order, Runs/Truncated/Exhausted exact, MaxRuns and MaxViolations
// enforced through an atomic budget handoff between subtrees.
package trace

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ResolveWorkers maps a Workers option value to a concrete pool size:
// 0 (the default) selects GOMAXPROCS, everything below 1 is clamped to 1.
func ResolveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// RunOnPool runs fn(0..n-1) on a pool of workers claiming indices from a
// shared counter; with one worker it degenerates to a plain loop. It is the
// shared fan-out shape of every parallel search in the repository — callers
// keep results deterministic by writing fn's outcome to a per-index slot and
// merging in index order afterwards.
func RunOnPool(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// frontierTarget is how many subtrees the coordinator aims to expand per
// worker: enough slack that an uneven subtree cannot idle the pool, small
// enough that probe runs and merge state stay negligible.
const frontierTarget = 4

// maxFrontier caps the frontier size regardless of worker count, which also
// caps the per-run cost of the budget lower bound (a prefix sum over the
// subtree run counters).
const maxFrontier = 512

// expandFrontier splits the DFS tree into at most about target disjoint
// subtree-root prefixes (capped by a MaxRuns budget), in canonical DFS
// order, by probing: one run with prefix p (first-enabled beyond it) reveals
// the enabled set at decision level len(p), whose members are p's children.
// Probes run on one unpruned, uncheckpointed explorer whose arenas hold the
// probe's decisions. Expansion proceeds level by level until the frontier
// reaches target, probing is no longer making progress, or the probe budget
// is spent. Probe runs are discarded — each one is re-executed as its
// subtree's first run — so probe run errors are deliberately ignored here:
// the owning worker hits the same error at its canonical position. A probe
// whose replayed prefix diverged is different: the factory is
// nondeterministic, and the re-execution need not diverge again, so the
// replay-divergence error fails the search here. So does a probe whose
// prefix lies on the first probe's schedule but which does not retrace that
// schedule to its end: the subtrees replay only schedules recorded on later
// systems, so a factory whose systems change after the first builds would
// otherwise go unnoticed on every sharded path (a single-subtree walk
// catches it because its backtracking replays schedules recorded on the
// earliest systems).
func expandFrontier(nprocs int, factory Factory, opts ExploreOpts, target int) ([][]int, error) {
	if opts.MaxRuns > 0 {
		target = min(target, opts.MaxRuns)
	}
	frontier := [][]int{{}}
	if target <= 1 {
		return frontier, nil
	}
	probeOpts := opts
	probeOpts.Prune, probeOpts.Symmetry, probeOpts.Checkpoint = false, false, false
	ex := newExplorer(nprocs, factory, probeOpts)
	var root []int // the first probe's schedule, when it ran cleanly
	probes := 0
	probeBudget := 8 * target
	for depth := 0; depth < opts.MaxDepth && len(frontier) < target && probes < probeBudget; depth++ {
		next := make([][]int, 0, len(frontier))
		for _, p := range frontier {
			if len(p) < depth || probes >= probeBudget {
				next = append(next, p) // already a leaf (or out of probes)
				continue
			}
			probes++
			ex.truncTo(0)
			strat, _, err := ex.runOnce(p, nil)
			if strat.diverged != nil {
				return nil, strat.diverged
			}
			if err == nil {
				if depth == 0 {
					root = append([]int{}, ex.picks...)
				} else if onPath(p, root) && !slices.Equal(ex.picks, root) {
					return nil, retraceDivergence(root, ex.picks)
				}
			}
			if err != nil || len(ex.picks) <= depth {
				// The run failed, or ended without a decision at this level:
				// the prefix is a complete (single-run) subtree.
				next = append(next, p)
				continue
			}
			for _, c := range ex.enabledAt(depth) {
				child := make([]int, depth+1)
				copy(child, p)
				child[depth] = c
				next = append(next, child)
			}
		}
		frontier = next
	}
	return frontier, nil
}

// onPath reports whether prefix p is a prefix of schedule root.
func onPath(p, root []int) bool {
	return len(p) <= len(root) && slices.Equal(p, root[:len(p)])
}

// retraceDivergence builds the error reported when a probe starting on the
// first probe's schedule did not retrace it.
func retraceDivergence(root, got []int) error {
	step := 0
	for step < min(len(root), len(got)) && root[step] == got[step] {
		step++
	}
	return fmt.Errorf("trace: schedule replay diverged at step %d: the first system built ran schedule %v, a later one ran %v; Explore requires the factory to build deterministic systems (consecutive calls must produce identical behaviour)", step, root, got)
}

// subViolation is one violation found inside a subtree, positioned by its
// run ordinal so the merge can apply MaxViolations at the exact run where
// a single walk over the whole tree would have stopped.
type subViolation struct {
	ord      int // run ordinal within the subtree
	truncCum int // truncated runs among ordinals [0, ord], inclusive
	// prunedCum and distinctCum position the prune counters at
	// this violation: cut runs among ordinals [0, ord] (the violating run is
	// never cut) and states closed before the violating run's backtrack (a
	// violation cutoff stops the loop before closures).
	prunedCum   int
	distinctCum int
	v           Violation
}

// subtreeResult is one worker's report for one subtree: aggregate counts
// plus the per-run detail (violation ordinals, truncation bits, the failing
// run) the deterministic merge needs to re-cut the search exactly.
type subtreeResult struct {
	runs      int
	truncated int
	exhausted bool // the subtree's whole space was covered
	viols     []subViolation

	// pruned and distinct are the visited-state cache's counters (zero
	// without Prune).
	pruned   int
	distinct int

	// truncBits and pruneBits record, per run ordinal, whether the run was
	// truncated or cut; distCums[i] is the closed-state count through run i's
	// backtrack (pruned searches only). All three are only tracked under a
	// MaxRuns budget, where the merge may need the counters of an arbitrary
	// run prefix.
	truncBits  []uint64
	pruneBits  []uint64
	distCums   []int32
	trackTrunc bool

	// runErr is a failed run (engine error), wrapped with its schedule;
	// errOrd positions it, errTruncCum is the truncated count through it
	// (the failing run counts its truncation), and errPrunedCum and
	// errDistinctCum position the prune counters like a violation's.
	runErr         error
	errOrd         int
	errTruncCum    int
	errPrunedCum   int
	errDistinctCum int

	// stopped marks a subtree abandoned by ExploreOpts.Interrupted: the merge
	// credits whatever it completed and returns ErrInterrupted.
	stopped bool
}

// setBit marks run ordinal ord in a per-run bitset.
func setBit(bits *[]uint64, ord int) {
	w := ord >> 6
	for len(*bits) <= w {
		*bits = append(*bits, 0)
	}
	(*bits)[w] |= 1 << (ord & 63)
}

// countBits returns the number of marked ordinals in [0, n).
func countBits(bs []uint64, n int) int {
	c := 0
	for w := 0; w*64 < n; w++ {
		var word uint64
		if w < len(bs) {
			word = bs[w]
		}
		if (w+1)*64 > n {
			word &= 1<<(uint(n)&63) - 1
		}
		c += bits.OnesCount64(word)
	}
	return c
}

func (sr *subtreeResult) setTruncBit(ord int) {
	if sr.trackTrunc {
		setBit(&sr.truncBits, ord)
	}
}

func (sr *subtreeResult) setPruneBit(ord int) {
	if sr.trackTrunc {
		setBit(&sr.pruneBits, ord)
	}
}

// recordDistCum records the closed-state count after the latest run's
// backtrack; a pruned search calls it once per run, in ordinal order.
func (sr *subtreeResult) recordDistCum() {
	if sr.trackTrunc {
		sr.distCums = append(sr.distCums, int32(sr.distinct))
	}
}

// truncCount returns the number of truncated runs among ordinals [0, n).
func (sr *subtreeResult) truncCount(n int) int { return countBits(sr.truncBits, n) }

// exploreShared is the coordination state of one exploration.
type exploreShared struct {
	frontier [][]int
	next     atomic.Int64 // next unclaimed subtree index
	// counters[i] counts runs started in subtree i. A prefix sum over j < i
	// is a monotone lower bound on the runs the merge will credit before
	// subtree i — the atomic budget handoff: worker i stops as soon as that
	// bound plus its own runs reaches MaxRuns, which is provably at or past
	// the single-walk cutoff, and the merge trims the overshoot.
	counters []atomic.Int64
	// stopAfter is the smallest subtree index known to end the search (a
	// MaxRuns, MaxViolations or run-error cutoff); subtrees beyond it are
	// skipped or abandoned, and the merge never reads them.
	stopAfter atomic.Int64
	maxRuns   int
	maxViol   int
}

// newShared returns the coordination state for exploring frontier under
// opts, with no cutoff known yet.
func newShared(frontier [][]int, opts ExploreOpts) *exploreShared {
	sh := &exploreShared{
		frontier: frontier,
		counters: make([]atomic.Int64, len(frontier)),
		maxRuns:  opts.MaxRuns,
		maxViol:  maxViolations(opts),
	}
	sh.stopAfter.Store(math.MaxInt64)
	return sh
}

// maxViolations resolves ExploreOpts.MaxViolations: 0 means 1.
func maxViolations(opts ExploreOpts) int {
	return max(opts.MaxViolations, 1)
}

func (sh *exploreShared) cutAt(i int) {
	for {
		cur := sh.stopAfter.Load()
		if cur <= int64(i) || sh.stopAfter.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// baseLower returns the current lower bound on runs preceding subtree i in
// canonical order.
func (sh *exploreShared) baseLower(i int) int {
	sum := 0
	for j := 0; j < i; j++ {
		sum += int(sh.counters[j].Load())
	}
	return sum
}

// mergeSubtrees folds per-subtree results, in canonical DFS order, into the
// report one walk over the whole tree would have produced: it credits each subtree's
// runs against the MaxRuns budget, re-applies the MaxViolations and
// run-error cutoffs at their exact run ordinals, and trims the speculative
// overshoot past the first cutoff. With interrupted set (the caller's
// context was cancelled mid-search), missing or partial subtrees terminate
// the merge with the report so far and ErrInterrupted instead of being
// internal errors.
func mergeSubtrees(frontier [][]int, results []*subtreeResult, maxRuns, maxViol int, interrupted bool) (*ExploreReport, error) {
	rep := &ExploreReport{}
	for i, sr := range results {
		budgetRem := math.MaxInt
		if maxRuns > 0 {
			budgetRem = maxRuns - rep.Runs
			if budgetRem <= 0 {
				return rep, nil // budget spent before this subtree
			}
		}
		if sr == nil {
			if interrupted {
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: subtree %v was never explored", frontier[i])
		}
		// A subtree abandoned by ExploreOpts.Interrupted: credit what it
		// completed and stop — the partial report is best-effort.
		if sr.stopped {
			credit(rep, sr)
			return rep, ErrInterrupted
		}
		violRem := maxViol - len(rep.Violations)
		// MaxViolations cutoff inside this subtree? (Violation ordinals
		// always precede a run error's, since the worker stops on error.)
		if len(sr.viols) >= violRem && sr.viols[violRem-1].ord+1 <= budgetRem {
			v := sr.viols[violRem-1]
			rep.Runs += v.ord + 1
			rep.Truncated += v.truncCum
			rep.Pruned += v.prunedCum
			rep.Distinct += v.distinctCum
			for _, sv := range sr.viols[:violRem] {
				rep.Violations = append(rep.Violations, sv.v)
			}
			return rep, nil
		}
		// Run-error cutoff?
		if sr.errOrd >= 0 && sr.errOrd+1 <= budgetRem {
			rep.Runs += sr.errOrd + 1
			rep.Truncated += sr.errTruncCum
			rep.Pruned += sr.errPrunedCum
			rep.Distinct += sr.errDistinctCum
			for _, sv := range sr.viols {
				rep.Violations = append(rep.Violations, sv.v)
			}
			return rep, sr.runErr
		}
		// MaxRuns cutoff inside this subtree? (The boundary case — budget
		// spent exactly at the subtree's recorded runs without exhausting it
		// — is a single walk stopping at its budget check with more
		// prefixes left to explore.)
		if budgetRem < sr.runs || (budgetRem == sr.runs && !sr.exhausted) {
			rep.Runs += budgetRem
			rep.Truncated += sr.truncCount(budgetRem)
			rep.Pruned += countBits(sr.pruneBits, budgetRem)
			if len(sr.distCums) >= budgetRem && budgetRem > 0 {
				rep.Distinct += int(sr.distCums[budgetRem-1])
			}
			for _, sv := range sr.viols {
				if sv.ord < budgetRem {
					rep.Violations = append(rep.Violations, sv.v)
				}
			}
			return rep, nil
		}
		// No cutoff here: credit the whole subtree.
		if !sr.exhausted {
			if interrupted {
				credit(rep, sr)
				return rep, ErrInterrupted
			}
			return nil, fmt.Errorf("trace: internal: partial subtree %v survived merging", frontier[i])
		}
		credit(rep, sr)
	}
	rep.Exhausted = true
	return rep, nil
}

// credit adds one whole subtree result — counters and violations — to the
// merged report.
func credit(rep *ExploreReport, sr *subtreeResult) {
	rep.Runs += sr.runs
	rep.Truncated += sr.truncated
	rep.Pruned += sr.pruned
	rep.Distinct += sr.distinct
	for _, sv := range sr.viols {
		rep.Violations = append(rep.Violations, sv.v)
	}
}
