// Stateful exploration: state-fingerprint pruning and subtree checkpointing
// for the exhaustive schedule search. The plain explorer (explore.go)
// enumerates schedules; on symmetric protocols huge numbers of interleavings
// converge to identical configurations and are re-explored in full. The
// stateful explorer hashes the configuration — every shared object and every
// process state, via the fingerprint contract of sched.Fingerprinter — at
// each scheduler decision and cuts the subtree when that configuration was
// already fully explored with at least as much remaining depth (classic
// state caching). Independently, it can checkpoint the sequential engine and
// system state at every decision on the current path and fork the next
// schedule from the deepest common prefix instead of replaying it from the
// root (subtree checkpointing).
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
// Determinism across worker counts: the visited-state cache is shared
// through a lock-striped table sharded by hash prefix, but cache *visibility*
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
	"math"
	"sync"
	"sync/atomic"

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

// fpStripeBits is the hash-prefix width selecting a stripe of the table.
const fpStripeBits = 6

// fpTable is the lock-striped visited-state table shared across subtrees:
// fingerprint -> the largest remaining depth to which that configuration has
// been fully explored. Stripes are selected by the top hash bits. Writes
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

func (t *fpTable) lookup(fp uint64) (int, bool) {
	rem, ok := t.stripes[fp>>(64-fpStripeBits)].m[fp]
	return rem, ok
}

// publish max-merges one subtree's private closures into the table. The
// result is a per-entry maximum, so the table contents after a barrier do
// not depend on publish order.
func (t *fpTable) publish(local map[uint64]int) {
	for fp, rem := range local {
		s := &t.stripes[fp>>(64-fpStripeBits)]
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

// stExplorer runs the stateful DFS over one subtree. Unlike recStrategy,
// whose arenas are reset per schedule, the explorer's path state (picks,
// enabled-set arenas, fingerprints, checkpoints) persists across runs and is
// truncated to the resume depth — checkpointed runs never re-record the
// shared prefix, and backtracking still sees every recorded sibling.
type stExplorer struct {
	nprocs  int
	factory Factory
	opts    ExploreOpts

	i     int   // subtree index (canonical order)
	root  []int // subtree root prefix
	floor int   // = len(root); backtracking never unwinds above it

	sh         *exploreShared
	budgetBase func() int // runs credited before this subtree (lower bound)
	maxViol    int

	cache      *stateCache // nil without Prune
	checkpoint bool

	// Persistent path state, indexed by absolute decision depth.
	flat  []int
	offs  []int
	picks []int
	fps   []uint64
	cps   []stCheckpoint

	h  maphash.Hash
	sr *subtreeResult
}

// stStrategy is the per-run strategy of the stateful explorer: it replays
// the target prefix, prunes against the visited-state cache, captures
// checkpoints along the descent, and records decisions into the explorer's
// persistent arenas.
type stStrategy struct {
	ex       *stExplorer
	prefix   []int // absolute target picks for replayed depths
	maxDepth int
	sys      *System
	eng      *sched.SeqEngine // non-nil iff checkpointing

	trunc    bool
	cut      bool
	diverged error
}

func (s *stStrategy) Pick(step int, enabled []int) int {
	ex := s.ex
	if step >= s.maxDepth {
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
		if rem, ok := ex.cache.lookup(fp); ok && rem >= s.maxDepth-d {
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
			s.diverged = replayDivergence(d, pick, enabled)
			return sched.Halt
		}
	}
	ex.flat = append(ex.flat, enabled...)
	ex.offs = append(ex.offs, len(ex.flat))
	ex.picks = append(ex.picks, pick)
	return pick
}

// runOnce executes one schedule: from a checkpoint when one covers the
// target prefix, from the root otherwise.
func (ex *stExplorer) runOnce(prefix []int, from *stCheckpoint) (*stStrategy, System, *sched.Result, error) {
	strat := &stStrategy{ex: ex, prefix: prefix, maxDepth: ex.opts.MaxDepth}
	var sys System
	var res *sched.Result
	var err error
	if from != nil {
		eng := sched.ResumeSeqEngine(from.cp, strat)
		sys = from.sys.Fork(eng)
		strat.sys = &sys
		strat.eng = eng
		res, err = eng.RunMachines(sys.Machines)
		return strat, sys, res, err
	}
	eng, eerr := sched.NewEngine(ex.opts.Engine, ex.nprocs, strat)
	if eerr != nil {
		return strat, sys, nil, eerr
	}
	sys = ex.factory(eng)
	strat.sys = &sys
	if ex.checkpoint {
		strat.eng = eng.(*sched.SeqEngine)
	}
	if sys.Machines != nil {
		res, err = eng.RunMachines(sys.Machines)
	} else {
		res, err = eng.Run(sys.Body)
	}
	return strat, sys, res, err
}

// backtrack returns the next prefix in DFS order over the persistent arenas,
// never unwinding above the subtree root, or nil when the subtree is done.
func (ex *stExplorer) backtrack() []int {
	for d := len(ex.picks) - 1; d >= ex.floor; d-- {
		opts := ex.flat[ex.offs[d]:ex.offs[d+1]]
		idx := -1
		for i, pid := range opts {
			if pid == ex.picks[d] {
				idx = i
				break
			}
		}
		if idx >= 0 && idx+1 < len(opts) {
			next := make([]int, d+1)
			copy(next, ex.picks[:d])
			next[d] = opts[idx+1]
			return next
		}
	}
	return nil
}

// closeStates records as fully explored every node on the current path whose
// last child subtree just completed: the depths the backtrack sweep passed
// without finding an unexplored sibling. A cut or truncated leaf is not
// closed (it was not explored here), and nodes above the subtree root belong
// to sibling subtrees and other workers.
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

// explore runs the stateful DFS loop for one subtree. The loop body mirrors
// exploreSubtree (run, account, check, backtrack, budget), with three
// additions: cut runs skip the check and count as pruned, completed subtree
// roots are closed into the cache, and the next run forks from the deepest
// checkpoint at or above the divergence depth.
func (ex *stExplorer) explore() *subtreeResult {
	sr := &subtreeResult{errOrd: -1, trackTrunc: ex.sh.maxRuns > 0}
	ex.sr = sr
	ex.offs = append(ex.offs[:0], 0)
	if ex.sh.maxRuns > 0 && ex.budgetBase() >= ex.sh.maxRuns {
		ex.sh.cutAt(ex.i)
		return sr // earlier subtrees alone exhaust the budget
	}
	prefix := ex.root
	var from *stCheckpoint
	for {
		if int64(ex.i) > ex.sh.stopAfter.Load() {
			return sr // an earlier subtree already ends the search
		}
		if ex.opts.Interrupted != nil && ex.opts.Interrupted() {
			sr.stopped = true
			ex.sh.cutAt(ex.i)
			return sr
		}
		ex.sh.counters[ex.i].Add(1)
		strat, sys, res, err := ex.runOnce(prefix, from)
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
			ex.sh.cutAt(ex.i)
			return sr
		}
		if !strat.cut {
			if cerr := sys.Check(res); cerr != nil {
				sch := append([]int(nil), ex.picks...)
				sr.viols = append(sr.viols, subViolation{ord: ord, truncCum: sr.truncated,
					prunedCum: sr.pruned, distinctCum: sr.distinct,
					v: Violation{Schedule: sch, Err: cerr}})
				if len(sr.viols) >= ex.maxViol {
					ex.sh.cutAt(ex.i)
					return sr
				}
			}
		}
		next := ex.backtrack()
		ex.closeStates(next)
		sr.recordDistCum()
		if next == nil {
			sr.exhausted = true
			return sr
		}
		if ex.sh.maxRuns > 0 && ex.budgetBase()+sr.runs >= ex.sh.maxRuns {
			ex.sh.cutAt(ex.i)
			return sr
		}
		base := 0
		from = nil
		if ex.checkpoint {
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

// validateStateful checks the capability contracts of a Prune/Checkpoint
// exploration against a probe system: the fingerprint for pruning, the
// fork/machine contract for checkpointing. Shared by the in-process entry
// point and the distributed worker's RunSubtree.
func validateStateful(nprocs int, factory Factory, opts ExploreOpts) error {
	kind := opts.Engine
	if kind == "" {
		kind = sched.DefaultEngine
	}
	probe, err := sched.NewEngine(kind, nprocs, sched.Lowest{})
	if err != nil {
		return err
	}
	caps := factory(probe)
	if opts.Prune && caps.Fingerprint == nil {
		return fmt.Errorf("trace: ExploreOpts.Prune requires System.Fingerprint (the factory's systems expose no configuration fingerprint)")
	}
	if opts.Symmetry {
		if !opts.Prune {
			return fmt.Errorf("trace: ExploreOpts.Symmetry requires Prune (symmetry reduction only changes which fingerprint the visited-state cache stores)")
		}
		if caps.CanonicalFingerprint == nil {
			return fmt.Errorf("trace: ExploreOpts.Symmetry requires System.CanonicalFingerprint (the factory's systems expose no symmetry-reduced fingerprint)")
		}
	}
	if opts.Checkpoint {
		if kind != sched.EngineSeq {
			return fmt.Errorf("trace: ExploreOpts.Checkpoint requires the sequential engine, got %q", kind)
		}
		if caps.Fork == nil {
			return fmt.Errorf("trace: ExploreOpts.Checkpoint requires System.Fork (the factory's systems expose no deep copy)")
		}
		if caps.Machines == nil {
			return fmt.Errorf("trace: ExploreOpts.Checkpoint requires machine-based systems (System.Machines); coroutine-bridged bodies cannot fork")
		}
	}
	return nil
}

// exploreStateful is the Prune/Checkpoint entry point: it validates the
// capability contracts, expands a worker-independent frontier, processes it
// in canonical waves over the worker pool, and merges the per-subtree
// results with the same deterministic merge as the plain parallel explorer.
func exploreStateful(nprocs int, factory Factory, opts ExploreOpts, workers int) (*ExploreReport, error) {
	if err := validateStateful(nprocs, factory, opts); err != nil {
		return nil, err
	}
	maxViol := opts.MaxViolations
	if maxViol <= 0 {
		maxViol = 1
	}

	// Frontier: fixed size when pruning (the sharing structure must not
	// depend on Workers), legacy worker-scaled size for checkpoint-only.
	var frontier [][]int
	var err error
	switch {
	case opts.Prune && nprocs > 1:
		target := pruneFrontierTarget
		if opts.MaxRuns > 0 {
			target = min(target, opts.MaxRuns)
		}
		frontier, err = expandFrontier(nprocs, factory, opts, max(target, 1))
	case !opts.Prune && workers > 1 && nprocs > 1:
		target := min(frontierTarget*workers, maxFrontier)
		if opts.MaxRuns > 0 {
			target = min(target, opts.MaxRuns)
		}
		frontier, err = expandFrontier(nprocs, factory, opts, max(target, 1))
	default:
		frontier = [][]int{{}}
	}
	if err != nil {
		return nil, err
	}

	sh := &exploreShared{
		frontier: frontier,
		counters: make([]atomic.Int64, len(frontier)),
		maxRuns:  opts.MaxRuns,
		maxViol:  maxViol,
	}
	sh.stopAfter.Store(math.MaxInt64)
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
			ex := &stExplorer{
				nprocs:     nprocs,
				factory:    factory,
				opts:       opts,
				i:          i,
				root:       frontier[i],
				floor:      len(frontier[i]),
				sh:         sh,
				maxViol:    maxViol,
				checkpoint: opts.Checkpoint,
				h:          sched.NewFingerprintHash(),
			}
			if opts.Prune {
				ex.cache = &stateCache{global: table, local: make(map[uint64]int)}
				caches[j] = ex.cache
				// Budget base frozen at the wave start: exact (earlier waves
				// are complete) and independent of in-wave scheduling.
				ex.budgetBase = func() int { return base }
			} else {
				ex.budgetBase = func() int { return sh.baseLower(i) }
			}
			results[i] = ex.explore()
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
	rep, err := mergeSubtrees(frontier, results, opts.MaxRuns, maxViol, false)
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
