// The schedule explorer: the one DFS loop every exhaustive search runs
// through (Explore, and RunSubtree for a distributed worker). Without
// options it enumerates every schedule of its subtree, one fresh engine per
// run, backtracking over the enabled sets it recorded. Two options make it
// stateful. Pruning: on symmetric protocols huge numbers of interleavings
// converge to identical configurations, so the explorer hashes the
// configuration — every shared object and every process state, via the
// fingerprint contract of sched.Fingerprinter — at each scheduler decision
// and cuts the subtree when that configuration was already fully explored
// with at least as much remaining depth (classic state caching).
// Checkpointing: it snapshots the sequential engine and system state at
// every branch point on the current path and forks the next schedule from
// the deepest common prefix instead of replaying it from the root.
//
// Soundness of the prune (safety checking): a configuration determines the
// set of configurations reachable from it within a step budget, and every
// System.Check the harness installs is a function of the final configuration
// (task validation over recorded outputs). A state closed with remaining
// depth r therefore has every check outcome below it, up to depth r, already
// examined; cutting a later visit with remaining depth <= r can only drop
// duplicate outcomes. The violation *set* and the Exhausted flag match the
// unpruned search; Runs, Truncated and the violation multiset may shrink.
// Checks that read per-run history (an operation log) are NOT functions of
// the configuration — do not prune those systems. 64-bit fingerprints admit
// hash collisions (a collision could wrongly cut a subtree), the standard,
// vanishingly-unlikely trade of fingerprint-based state caching.
//
// Determinism across worker counts: an unpruned search is one wave over a
// frontier scaled to the worker count, and the merge (parallel.go) makes its
// report independent of the sharding. A pruned search shares the
// visited-state cache through a lock-striped table, but cache *visibility*
// is structured so the report cannot depend on scheduling: the frontier is
// expanded to a fixed, worker-independent size, subtrees are processed in
// canonical waves of fixed width, each subtree sees the global table frozen
// as of its wave start plus its own private closures, and private closures
// are published (max-merged, order-independent) only at the wave barrier.
// Workers only parallelize within a wave, so Workers=1 and Workers=N produce
// the identical report, Pruned and Distinct counts included.
package trace

import (
	"fmt"
	"hash/maphash"
	"sync"

	"revisionist/internal/sched"
)

// pruneFrontierTarget is the fixed frontier size of a pruned exploration:
// worker-independent (the cache-sharing structure must not depend on
// Workers), large enough to keep a pool busy.
const pruneFrontierTarget = 32

// pruneWaveWidth is the number of subtrees per wave: subtrees within a wave
// share no closures (determinism), waves share through the global table. It
// also caps a pruned exploration's effective parallelism.
const pruneWaveWidth = 8

// fpStripeBits is the number of low fingerprint bits selecting a stripe of
// the table.
const fpStripeBits = 6

// fpTable is the lock-striped visited-state table shared across subtrees:
// fingerprint -> the largest remaining depth to which that configuration has
// been fully explored. Stripes are selected by the low fingerprint bits: a
// canonical fingerprint is the minimum of several hashes, so its top bits
// lean towards zero while its low bits stay uniform. Writes
// (publish) happen only between waves, under the stripe locks; reads during
// a wave are lock-free, ordered against the writes by the pool barrier.
type fpTable struct {
	stripes [1 << fpStripeBits]struct {
		mu sync.Mutex
		m  map[uint64]int
	}
}

func newFpTable() *fpTable {
	t := &fpTable{}
	for i := range t.stripes {
		t.stripes[i].m = make(map[uint64]int)
	}
	return t
}

// stripe returns the stripe holding fp.
func (t *fpTable) stripe(fp uint64) int { return int(fp & (1<<fpStripeBits - 1)) }

func (t *fpTable) lookup(fp uint64) (int, bool) {
	rem, ok := t.stripes[t.stripe(fp)].m[fp]
	return rem, ok
}

// publish max-merges one subtree's private closures into the table. The
// result is a per-entry maximum, so the table contents after a barrier do
// not depend on publish order.
func (t *fpTable) publish(local map[uint64]int) {
	for fp, rem := range local {
		s := &t.stripes[t.stripe(fp)]
		s.mu.Lock()
		if cur, ok := s.m[fp]; !ok || rem > cur {
			s.m[fp] = rem
		}
		s.mu.Unlock()
	}
}

// size returns the number of distinct configurations in the table.
func (t *fpTable) size() int {
	n := 0
	for i := range t.stripes {
		n += len(t.stripes[i].m)
	}
	return n
}

// fpSource is a read-only view of previously closed states. The in-process
// explorer reads an fpTable frozen at the wave barrier; a distributed worker
// reads its mirror of the coordinator's table, frozen the same way (deltas
// are only applied between leases of different waves).
type fpSource interface {
	lookup(fp uint64) (int, bool)
}

// fpFunc adapts a plain lookup function (the exported RunSubtree surface) to
// fpSource.
type fpFunc func(fp uint64) (int, bool)

func (f fpFunc) lookup(fp uint64) (int, bool) { return f(fp) }

// stateCache is one subtree's view of the visited states: the global table
// (frozen for the duration of the wave) plus the subtree's private closures.
type stateCache struct {
	global fpSource // nil for a single-subtree exploration
	local  map[uint64]int
}

func (c *stateCache) lookup(fp uint64) (int, bool) {
	rem, ok := c.local[fp]
	if c.global != nil {
		if g, gok := c.global.lookup(fp); gok && (!ok || g > rem) {
			return g, true
		}
	}
	return rem, ok
}

// close records fp as fully explored to rem further levels and reports
// whether the configuration is newly recorded (a distinct state).
func (c *stateCache) close(fp uint64, rem int) bool {
	prev, ok := c.local[fp]
	if ok {
		if rem > prev {
			c.local[fp] = rem
		}
		return false
	}
	c.local[fp] = rem
	if c.global != nil {
		if _, gok := c.global.lookup(fp); gok {
			return false
		}
	}
	return true
}

// noopStepper gates nothing: frozen checkpoint copies are wired to it — they
// never execute (resumption forks them again onto a live engine).
type noopStepper struct{}

func (noopStepper) Step(int, sched.Op) {}

// stCheckpoint is one entry of the checkpoint stack: the configuration after
// `depth` steps, frozen as a forked system plus the engine's scheduling
// state. Resuming forks the frozen system once more onto a fresh engine, so
// one checkpoint can seed every sibling subtree below it.
type stCheckpoint struct {
	depth int
	sys   System
	cp    *sched.SeqCheckpoint
}

// stExplorer runs the DFS over one subtree; every search, pruned or not,
// runs through it. Its path state (picks, enabled-set arenas, fingerprints,
// checkpoints) persists across runs and is truncated to the resume depth —
// checkpointed runs never re-record the shared prefix, and backtracking
// still sees every recorded sibling. With no cache and no checkpointing it
// enumerates every schedule of the subtree.
type stExplorer struct {
	nprocs  int
	factory Factory
	opts    ExploreOpts

	floor int         // = len(subtree root); backtracking never unwinds above it
	cache *stateCache // nil without Prune

	// Persistent path state, indexed by absolute decision depth.
	flat  []int
	offs  []int
	picks []int
	fps   []uint64
	cps   []stCheckpoint
	next  []int // the next run's target prefix, rebuilt by backtrack

	strat stStrategy // the per-run strategy, reset by every run
	h     maphash.Hash
	sr    *subtreeResult
}

// newExplorer returns an explorer with empty path state. The caller installs
// a cache for a pruned search.
func newExplorer(nprocs int, factory Factory, opts ExploreOpts) *stExplorer {
	ex := &stExplorer{nprocs: nprocs, factory: factory, opts: opts, offs: []int{0}}
	if opts.Prune {
		ex.h = sched.NewFingerprintHash()
	}
	return ex
}

// stStrategy is the per-run strategy of the explorer: it replays the target
// prefix, prunes against the visited-state cache, captures checkpoints along
// the descent, and records decisions into the explorer's persistent arenas.
type stStrategy struct {
	ex     *stExplorer
	prefix []int // absolute target picks for replayed depths
	sys    System
	eng    *sched.SeqEngine // non-nil iff checkpointing

	trunc    bool
	cut      bool
	diverged error // replay divergence: a prefix pick was not enabled
}

func (s *stStrategy) Pick(step int, enabled []int) int {
	ex := s.ex
	maxDepth := ex.opts.MaxDepth
	if step >= maxDepth {
		s.trunc = true
		return sched.Halt
	}
	d := step
	if ex.cache != nil {
		var fp uint64
		if ex.opts.Symmetry {
			fp = s.sys.CanonicalFingerprint(&ex.h)
		} else {
			ex.h.Reset()
			s.sys.Fingerprint(&ex.h)
			fp = ex.h.Sum64()
		}
		ex.fps = append(ex.fps, fp)
		if rem, ok := ex.cache.lookup(fp); ok && rem >= maxDepth-d {
			s.cut = true
			return sched.Halt
		}
	}
	// Checkpoint only at branch points: backtracking always diverges at a
	// depth with an unexplored sibling, so forks taken on forced single-
	// successor chains could never seed a resume — and every resume then
	// starts exactly at the divergence depth, replaying nothing.
	if s.eng != nil && d >= ex.floor && len(enabled) > 1 &&
		(len(ex.cps) == 0 || ex.cps[len(ex.cps)-1].depth < d) {
		ex.cps = append(ex.cps, stCheckpoint{depth: d, sys: s.sys.Fork(noopStepper{}), cp: s.eng.Checkpoint()})
	}
	pick := enabled[0]
	if d < len(s.prefix) {
		pick = s.prefix[d]
		if !pidEnabled(enabled, pick) {
			// Deterministic systems replay identically; reaching here means
			// the factory is nondeterministic, which the explorer cannot
			// handle: exploring on would silently visit a different tree.
			// Record the divergence and halt; the run surfaces it as an error.
			s.diverged = replayDivergence(d, pick, enabled)
			return sched.Halt
		}
	}
	ex.flat = append(ex.flat, enabled...)
	ex.offs = append(ex.offs, len(ex.flat))
	ex.picks = append(ex.picks, pick)
	return pick
}

// pidEnabled reports whether pick appears in the sorted enabled set.
func pidEnabled(enabled []int, pick int) bool {
	for _, pid := range enabled {
		if pid == pick {
			return true
		}
	}
	return false
}

// replayDivergence builds the error reported when a replayed prefix pick is
// not enabled — the signature of a nondeterministic factory.
func replayDivergence(step, pick int, enabled []int) error {
	return fmt.Errorf("trace: schedule replay diverged at step %d: recorded pick %d is not in the enabled set %v; Explore requires the factory to build deterministic systems (consecutive calls must produce identical behaviour)", step, pick, enabled)
}

// runOnce executes one schedule: from a checkpoint when one covers the
// target prefix, from the root otherwise. It returns the explorer's own
// strategy, which holds the run's system and outcome until the next run.
func (ex *stExplorer) runOnce(prefix []int, from *stCheckpoint) (*stStrategy, *sched.Result, error) {
	s := &ex.strat
	*s = stStrategy{ex: ex, prefix: prefix}
	if from != nil {
		eng := sched.ResumeSeqEngine(from.cp, s)
		s.sys, s.eng = from.sys.Fork(eng), eng
		res, err := eng.RunMachines(s.sys.Machines)
		return s, res, err
	}
	eng, err := sched.NewEngine(ex.opts.Engine, ex.nprocs, s)
	if err != nil {
		return s, nil, err
	}
	s.sys = ex.factory(eng)
	if ex.opts.Checkpoint {
		s.eng = eng.(*sched.SeqEngine)
	}
	var res *sched.Result
	if s.sys.Machines != nil {
		res, err = eng.RunMachines(s.sys.Machines)
	} else {
		res, err = eng.Run(s.sys.Body)
	}
	return s, res, err
}

// enabledAt returns the recorded enabled set of decision depth d.
func (ex *stExplorer) enabledAt(d int) []int {
	return ex.flat[ex.offs[d]:ex.offs[d+1]]
}

// backtrack returns the next prefix in DFS order over the persistent arenas,
// never unwinding above the subtree root, or nil when the subtree is done.
// The prefix lives in a buffer the next call overwrites.
func (ex *stExplorer) backtrack() []int {
	for d := len(ex.picks) - 1; d >= ex.floor; d-- {
		opts := ex.enabledAt(d)
		idx := -1
		for i, pid := range opts {
			if pid == ex.picks[d] {
				idx = i
				break
			}
		}
		if idx >= 0 && idx+1 < len(opts) {
			ex.next = append(append(ex.next[:0], ex.picks[:d]...), opts[idx+1])
			return ex.next
		}
	}
	return nil
}

// closeStates records as fully explored every node on the current path whose
// last child subtree just completed: the depths the backtrack sweep passed
// without finding an unexplored sibling. A cut or truncated leaf is not
// closed (it was not explored here), and nodes above the subtree root belong
// to sibling subtrees and other workers. Without a cache there is nothing to
// close or count.
func (ex *stExplorer) closeStates(next []int) {
	if ex.cache == nil {
		return
	}
	dd := ex.floor - 1
	if next != nil {
		dd = len(next) - 1
	}
	for d := max(dd+1, ex.floor); d < len(ex.picks); d++ {
		if ex.cache.close(ex.fps[d], ex.opts.MaxDepth-d) {
			ex.sr.distinct++
			ex.opts.Obs.StateClosed()
		}
	}
	ex.sr.recordDistCum()
}

// truncTo truncates the persistent path state to the resume depth: decisions
// below it will be re-recorded by the next run (or, with checkpointing, only
// the suffix past the checkpoint is).
func (ex *stExplorer) truncTo(base int) {
	ex.picks = ex.picks[:base]
	ex.flat = ex.flat[:ex.offs[base]]
	ex.offs = ex.offs[:base+1]
	if len(ex.fps) > base {
		ex.fps = ex.fps[:base]
	}
}

// explore runs the DFS loop over subtree i of sh's frontier: run, account,
// check, backtrack, budget. Cut runs skip the check and count as pruned,
// completed subtree roots are closed into the cache, and the next run forks
// from the deepest checkpoint at or above the divergence depth. budgetBase
// is a lower bound on the runs the merge credits before this subtree.
func (ex *stExplorer) explore(sh *exploreShared, i int, budgetBase func() int) *subtreeResult {
	root := sh.frontier[i]
	ex.floor = len(root)
	sr := &subtreeResult{errOrd: -1, trackTrunc: sh.maxRuns > 0}
	ex.sr = sr
	if sh.maxRuns > 0 && budgetBase() >= sh.maxRuns {
		sh.cutAt(i)
		return sr // earlier subtrees alone exhaust the budget
	}
	prefix := root
	var from *stCheckpoint
	for {
		if int64(i) > sh.stopAfter.Load() {
			return sr // an earlier subtree already ends the search
		}
		if ex.opts.Interrupted != nil && ex.opts.Interrupted() {
			sr.stopped = true
			sh.cutAt(i)
			return sr
		}
		sh.counters[i].Add(1)
		strat, res, err := ex.runOnce(prefix, from)
		ord := sr.runs
		sr.runs++
		if strat.trunc {
			sr.truncated++
			sr.setTruncBit(ord)
		}
		if strat.cut {
			sr.pruned++
			sr.setPruneBit(ord)
		}
		ex.opts.Obs.RunDone(strat.trunc, strat.cut, ex.opts.Symmetry)
		if err == nil {
			err = strat.diverged
		}
		if err != nil {
			sr.runErr = fmt.Errorf("trace: run failed on schedule %v: %w", ex.picks, err)
			sr.errOrd, sr.errTruncCum = ord, sr.truncated
			sr.errPrunedCum, sr.errDistinctCum = sr.pruned, sr.distinct
			sh.cutAt(i)
			return sr
		}
		if !strat.cut {
			if cerr := strat.sys.Check(res); cerr != nil {
				sch := append([]int(nil), ex.picks...)
				sr.viols = append(sr.viols, subViolation{ord: ord, truncCum: sr.truncated,
					prunedCum: sr.pruned, distinctCum: sr.distinct,
					v: Violation{Schedule: sch, Err: cerr}})
				if len(sr.viols) >= sh.maxViol {
					sh.cutAt(i)
					return sr
				}
			}
		}
		next := ex.backtrack()
		ex.closeStates(next)
		if next == nil {
			sr.exhausted = true
			return sr
		}
		// The budget is checked after the backtrack, so a subtree that stops
		// on budget has already learned whether it was exhausted, which the
		// merge needs for the exact Exhausted flag.
		if sh.maxRuns > 0 && budgetBase()+sr.runs >= sh.maxRuns {
			sh.cutAt(i)
			return sr
		}
		base := 0
		from = nil
		if ex.opts.Checkpoint {
			dd := len(next) - 1
			for len(ex.cps) > 0 && ex.cps[len(ex.cps)-1].depth > dd {
				ex.cps = ex.cps[:len(ex.cps)-1]
			}
			if len(ex.cps) > 0 {
				from = &ex.cps[len(ex.cps)-1]
				base = from.depth
			}
		}
		prefix = next
		ex.truncTo(base)
	}
}

// exploreStateful runs every Explore: it validates the option contracts,
// expands the frontier, processes it in canonical waves over the worker
// pool, and merges the per-subtree results deterministically. A pruned
// search uses a fixed, worker-independent frontier in waves of
// pruneWaveWidth; an unpruned one shards by worker count — one subtree for
// one worker — and runs its whole frontier as a single wave.
func exploreStateful(nprocs int, factory Factory, opts ExploreOpts, workers int) (*ExploreReport, error) {
	if err := validate(nprocs, factory, opts); err != nil {
		return nil, err
	}
	target := 1
	switch {
	case nprocs <= 1:
	case opts.Prune:
		target = pruneFrontierTarget
	case workers > 1:
		target = min(frontierTarget*workers, maxFrontier)
	}
	frontier, err := expandFrontier(nprocs, factory, opts, target)
	if err != nil {
		return nil, err
	}

	sh := newShared(frontier, opts)
	results := make([]*subtreeResult, len(frontier))

	var table *fpTable
	width := len(frontier)
	if opts.Prune {
		table = newFpTable()
		width = pruneWaveWidth
	}

	opts.Obs.SetFrontier(len(frontier))
	done := 0 // runs in completed waves: the exact budget base of the next wave
	for lo := 0; lo < len(frontier); lo += width {
		hi := min(lo+width, len(frontier))
		if int64(lo) > sh.stopAfter.Load() {
			break
		}
		waveStart := opts.Obs.WaveStart()
		caches := make([]*stateCache, hi-lo)
		base := done
		RunOnPool(min(workers, hi-lo), hi-lo, func(j int) {
			i := lo + j
			if int64(i) > sh.stopAfter.Load() {
				return
			}
			ex := newExplorer(nprocs, factory, opts)
			budgetBase := func() int { return sh.baseLower(i) }
			if opts.Prune {
				ex.cache = &stateCache{global: table, local: make(map[uint64]int)}
				caches[j] = ex.cache
				// Budget base frozen at the wave start: exact (earlier waves
				// are complete) and independent of in-wave scheduling.
				budgetBase = func() int { return base }
			}
			results[i] = ex.explore(sh, i, budgetBase)
		})
		for _, sr := range results[lo:hi] {
			if sr != nil {
				done += sr.runs
			}
		}
		if sh.stopAfter.Load() < int64(hi) {
			break // the search ends inside this wave: nothing beyond merges
		}
		if table != nil {
			RunOnPool(min(workers, hi-lo), hi-lo, func(j int) {
				if caches[j] != nil {
					table.publish(caches[j].local)
				}
			})
		}
		opts.Obs.WaveDone(lo/width, waveStart, len(frontier)-hi)
	}
	rep, err := mergeSubtrees(frontier, results, opts.MaxRuns, sh.maxViol, false)
	if err == nil && table != nil && rep.Exhausted {
		// An exhausted search published every wave, so the table holds the
		// union of all closures: the exact distinct-configuration count. The
		// merge's per-subtree sum counts a configuration closed independently
		// by sibling subtrees of one wave once per subtree; it remains the
		// (deterministic) value only when a cutoff trimmed the search and the
		// final wave never published.
		rep.Distinct = table.size()
	}
	return rep, err
}
