package trace

import (
	"fmt"
	"slices"
	"testing"

	"revisionist/internal/sched"
	"revisionist/internal/shmem"
)

// counterSystem: two processes each write their pid then read back; check can
// be told to flag a specific final read by process 0. The final value is
// captured inside Body — Check must not touch gated objects, since the
// scheduler has already shut down when it runs.
func counterSystem(flagValue shmem.Value) Factory {
	return func(runner sched.Stepper) System {
		reg := shmem.NewRegister("R", runner, nil)
		var lastRead [2]shmem.Value
		return System{
			Body: func(pid int) {
				reg.Write(pid, pid)
				lastRead[pid] = reg.Read(pid)
			},
			Check: func(*sched.Result) error {
				if flagValue != nil && lastRead[0] == flagValue {
					return fmt.Errorf("flagged value reached")
				}
				return nil
			},
		}
	}
}

// testWorkers is the worker-count dimension of the explorer tests: one
// subtree walked in place, and a sharded frontier.
var testWorkers = []int{1, 4}

func TestExploreExhaustsSmallSpace(t *testing.T) {
	for _, w := range testWorkers {
		rep, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 10, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Exhausted {
			t.Fatalf("workers=%d: small space not exhausted", w)
		}
		// Two processes, four ops: C(4,2) = 6 interleavings.
		if rep.Runs != 6 {
			t.Fatalf("workers=%d: runs = %d, want 6", w, rep.Runs)
		}
		if len(rep.Violations) != 0 {
			t.Fatalf("workers=%d: unexpected violations: %v", w, rep.Violations)
		}
	}
}

func TestExploreFindsViolation(t *testing.T) {
	for _, w := range testWorkers {
		// Flag the schedules in which process 1's write lands last.
		rep, err := Explore(2, counterSystem(1), ExploreOpts{MaxDepth: 10, MaxViolations: 10, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			t.Fatalf("workers=%d: no violation found", w)
		}
		// Replaying a violating schedule reproduces it.
		v := rep.Violations[0]
		runner := sched.NewRunner(2, sched.Replay{Choices: v.Schedule, Fallback: sched.RoundRobin{N: 2}})
		reg := shmem.NewRegister("R", runner, nil)
		var lastRead [2]shmem.Value
		if _, err := runner.Run(func(pid int) {
			reg.Write(pid, pid)
			lastRead[pid] = reg.Read(pid)
		}); err != nil {
			t.Fatal(err)
		}
		if lastRead[0] != 1 {
			t.Fatalf("workers=%d: replay of violating schedule gives %v, want 1", w, lastRead[0])
		}
	}
}

func TestExploreRespectsMaxRuns(t *testing.T) {
	for _, w := range testWorkers {
		rep, err := Explore(2, counterSystem(nil), ExploreOpts{MaxDepth: 10, MaxRuns: 3, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Runs != 3 || rep.Exhausted {
			t.Fatalf("workers=%d: runs=%d exhausted=%v", w, rep.Runs, rep.Exhausted)
		}
	}
}

func TestExploreTruncatesAtDepth(t *testing.T) {
	factory := func(runner sched.Stepper) System {
		reg := shmem.NewRegister("R", runner, nil)
		return System{
			Body: func(pid int) {
				for i := 0; i < 100; i++ {
					reg.Write(pid, i)
				}
			},
			Check: func(*sched.Result) error { return nil },
		}
	}
	for _, w := range testWorkers {
		rep, err := Explore(1, factory, ExploreOpts{MaxDepth: 5, MaxRuns: 2, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Truncated == 0 {
			t.Fatalf("workers=%d: expected truncated runs", w)
		}
	}
}

func TestExploreRejectsBadDepth(t *testing.T) {
	for _, w := range testWorkers {
		if _, err := Explore(1, counterSystem(nil), ExploreOpts{Workers: w}); err == nil {
			t.Fatalf("workers=%d: MaxDepth 0 accepted", w)
		}
	}
}

func TestBacktrackOrder(t *testing.T) {
	// backtrack must produce the DFS-next prefix.
	mk := func(enabled [][]int, picks []int, floor int) *stExplorer {
		ex := &stExplorer{floor: floor, offs: []int{0}}
		for _, e := range enabled {
			ex.flat = append(ex.flat, e...)
			ex.offs = append(ex.offs, len(ex.flat))
		}
		ex.picks = picks
		return ex
	}
	next := mk([][]int{{0, 1}, {0, 1}, {1}}, []int{0, 0, 1}, 0).backtrack()
	if want := []int{0, 1}; !slices.Equal(next, want) {
		t.Fatalf("next = %v, want %v", next, want)
	}
	// Fully explored space returns nil.
	if mk([][]int{{0}}, []int{0}, 0).backtrack() != nil {
		t.Fatal("expected nil for exhausted space")
	}
	// A floor keeps subtree exploration from unwinding into sibling
	// subtrees: the same state with floor 1 has no sibling below the root.
	if mk([][]int{{0, 1}, {1}}, []int{0, 1}, 1).backtrack() != nil {
		t.Fatal("expected nil when the only sibling is above the floor")
	}
	// Above the floor the sibling is found.
	if next := mk([][]int{{0, 1}, {1}}, []int{0, 1}, 0).backtrack(); !slices.Equal(next, []int{1}) {
		t.Fatalf("next = %v, want [1]", next)
	}
}
