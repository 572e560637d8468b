// Package trace provides execution-history tooling: bounded exhaustive
// schedule exploration — the option and report types and the Explore entry
// point (this file), the one DFS explorer that runs every search
// (stateful.go), frontier sharding and the deterministic merge (parallel.go)
// and its exported per-subtree form (subtree.go) — plus seeded adversarial
// search (fuzz.go) and offline linearization and specification checking for
// the augmented snapshot object (check.go).
package trace

import (
	"fmt"
	"hash/maphash"

	"revisionist/internal/sched"
)

// ExploreOpts bounds an exhaustive exploration.
type ExploreOpts struct {
	// MaxDepth caps the number of scheduler steps per run; runs that reach it
	// are truncated (remaining processes treated as crashed), which is sound
	// for safety checking of colorless tasks because their specifications are
	// subset-closed.
	MaxDepth int
	// MaxRuns caps the number of explored schedules (0 = no cap).
	MaxRuns int
	// MaxViolations stops the search after this many violations (0 = 1).
	MaxViolations int
	// Engine selects the execution engine used per schedule; the default
	// (sched.EngineSeq) dispatches steps directly with no goroutine setup per
	// run, which makes exploration an order of magnitude faster than the
	// goroutine gate.
	Engine sched.EngineKind
	// Workers sets the search worker-pool size: the DFS prefix tree is
	// sharded into disjoint subtrees (see parallel.go) drained by this many
	// workers, and the per-subtree results are merged back in canonical DFS
	// order, so the report is byte-identical for any worker count. 0 selects
	// GOMAXPROCS; 1 explores the unpruned tree as a single subtree, with no
	// frontier probes.
	Workers int
	// Prune enables state-fingerprint pruning (see stateful.go): the
	// configuration hash after each decision is looked up in a visited-state
	// cache and the subtree is cut when that configuration was already fully
	// explored with at least as much remaining depth. Sound for safety
	// checking when System.Check is a function of the reachable state (the
	// task validators are); the violation set and Exhausted flag match the
	// unpruned search, while Runs, Truncated and the violation multiset may
	// shrink (a violation reachable only through already-covered states is
	// reported once, not once per schedule). Requires System.Fingerprint.
	// The report is identical for any Workers value.
	Prune bool
	// Symmetry enables symmetry-reduced pruning: the visited-state cache
	// stores canonical fingerprints (System.CanonicalFingerprint) that
	// collapse process-permutation orbits, so a configuration is pruned when
	// any member of its orbit was fully explored. Exact for the same class of
	// systems Prune is: the violation set and Exhausted flag match the
	// unreduced search up to renaming interchangeable processes (a violation
	// is reported iff its orbit contains one). Requires Prune — symmetry only
	// changes which fingerprint the cache stores — and
	// System.CanonicalFingerprint. The report is identical for any Workers
	// value, and is a no-op (identical to plain Prune modulo hash values) on
	// systems with no declared symmetry.
	Symmetry bool
	// Checkpoint enables subtree checkpointing: the sequential engine and
	// system state are snapshotted at each decision on the current path, and
	// the DFS forks the next run from the deepest common prefix instead of
	// replaying the whole schedule. Requires System.Fork, System.Machines and
	// the sequential engine. Reports are identical with and without it.
	Checkpoint bool
	// Interrupted, when non-nil, is polled between schedules (at every DFS
	// loop top, on every worker). When it returns true the search stops after
	// the current run and Explore returns the partial report accumulated so
	// far — runs, truncations and violations already found, merged across
	// whatever subtrees completed — alongside ErrInterrupted. The partial
	// report is best-effort: unlike a completed search it may depend on
	// worker scheduling. Excluded from the wire encoding of the distributed
	// search (a remote worker cannot poll a local closure).
	Interrupted func() bool `json:"-"`
	// Obs, when non-nil, receives search metrics (runs, cuts, closures, wave
	// barriers) as the exploration proceeds. A pure side channel: the report
	// is byte-identical with Obs set or nil. Like Interrupted it is local
	// state and never crosses the wire.
	Obs *SearchObs `json:"-"`
}

// Violation is one failing schedule.
type Violation struct {
	Schedule []int // scheduler picks, replayable with sched.Replay
	Err      error
}

// ExploreReport summarizes an exhaustive exploration.
type ExploreReport struct {
	Runs       int
	Truncated  int // runs cut off at MaxDepth
	Violations []Violation
	Exhausted  bool // the whole schedule space within MaxDepth was covered
	// Pruned counts runs cut by the visited-state cache (ExploreOpts.Prune):
	// the run reached a configuration already fully explored with at least as
	// much remaining depth and its subtree was skipped. Distinct counts the
	// configurations recorded as fully explored: exact for an exhausted
	// search; when a bound cut the search short it is the deterministic
	// per-subtree sum, which counts a configuration closed independently by
	// sibling subtrees of one wave once per subtree. Both are zero without
	// pruning.
	Pruned   int
	Distinct int
}

// System is one freshly constructed system instance to execute and check.
// Factory functions wire their shared objects to the provided step gate,
// which is the engine the system will run on.
type System struct {
	// Body is the per-process closure body. Used when Machines is nil.
	Body func(pid int)
	// Machines, when non-nil, are resumable step machines (one per process)
	// that engines run natively — the fastest path on the sequential engine.
	// See proto.Machines for the protocol-process adapter.
	Machines []sched.Machine
	// Check is called after the run with the scheduler result; returning an
	// error marks the schedule as violating.
	Check func(res *sched.Result) error
	// Score, when non-nil, overrides the Fuzz metric for this system. A
	// metric that inspects per-run state (operation logs, outputs) must be
	// captured here, per system, rather than in a closure shared across
	// evaluations: with Workers > 1 several systems are evaluated at once.
	Score func(res *sched.Result) float64
	// Fingerprint, when non-nil, appends the system's full configuration —
	// every shared object's state and every process's state, in a fixed
	// order — to h, following the contract of sched.Fingerprinter. Required
	// by ExploreOpts.Prune; called only at scheduler decision points, where
	// the system is quiescent.
	Fingerprint func(h *maphash.Hash)
	// CanonicalFingerprint, when non-nil, returns the symmetry-reduced
	// configuration fingerprint: the minimum configuration hash over the
	// system's process-permutation group (see sched.Canonicalizer), so all
	// configurations of one orbit fingerprint identically. Required by
	// ExploreOpts.Symmetry; called only at decision points. h is scratch
	// space for the group minimization.
	CanonicalFingerprint func(h *maphash.Hash) uint64
	// Fork, when non-nil, returns a deep copy of the system in its current
	// state, wired to gate: cloned processes and machines, cloned shared
	// objects, and Check/Fingerprint/Fork hooks bound to the copy. Required
	// by ExploreOpts.Checkpoint; called only at decision points.
	Fork func(gate sched.Stepper) System
}

// Factory builds one fresh system wired to the given step gate. Explore and
// Fuzz construct a new engine (and through the factory a new system) for
// every schedule they execute. With Workers > 1 the factory is called from
// several workers concurrently, so consecutive calls must not share mutable
// state: everything a system touches — shared objects, processes, check
// state — must be built fresh per call.
type Factory func(gate sched.Stepper) System

// Explore enumerates schedules of the nprocs-process system produced by
// factory, depth-first over scheduler choices, until the space is exhausted
// or a bound is hit. Each schedule runs on a fresh engine of opts.Engine
// (sequential by default: no per-schedule goroutine system is built). Every
// search runs through the one explorer of stateful.go: the DFS tree is
// sharded into a frontier of subtrees drained by opts.Workers workers and
// merged back in canonical order, so the report is byte-identical for any
// worker count. Without Prune or Checkpoint the explorer enumerates every
// schedule; with them it cuts visited configurations and forks runs from
// checkpoints.
func Explore(nprocs int, factory Factory, opts ExploreOpts) (*ExploreReport, error) {
	return exploreStateful(nprocs, factory, opts, ResolveWorkers(opts.Workers))
}

// validate checks the option contracts before any schedule runs, for every
// entry point (Explore, SubtreePlan, RunSubtree). An unpruned,
// non-checkpointed search needs only a valid engine kind; pruning and
// checkpointing also check a probe system's capabilities: the fingerprint
// for pruning, the fork/machine contract for checkpointing.
func validate(nprocs int, factory Factory, opts ExploreOpts) error {
	if opts.MaxDepth <= 0 {
		return fmt.Errorf("trace: MaxDepth must be positive")
	}
	if opts.Symmetry && !opts.Prune {
		return fmt.Errorf("trace: ExploreOpts.Symmetry requires Prune (symmetry reduction only changes which fingerprint the visited-state cache stores)")
	}
	kind := opts.Engine
	if kind == "" {
		kind = sched.DefaultEngine
	}
	probe, err := sched.NewEngine(kind, nprocs, sched.Lowest{})
	if err != nil || !opts.Prune && !opts.Checkpoint {
		return err
	}
	caps := factory(probe)
	if opts.Prune && caps.Fingerprint == nil {
		return fmt.Errorf("trace: ExploreOpts.Prune requires System.Fingerprint (the factory's systems expose no configuration fingerprint)")
	}
	if opts.Symmetry && caps.CanonicalFingerprint == nil {
		return fmt.Errorf("trace: ExploreOpts.Symmetry requires System.CanonicalFingerprint (the factory's systems expose no symmetry-reduced fingerprint)")
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
