package main

import (
	"math"
	"testing"
	"time"
)

// TestTimelineRescales: a stretch of work is rescaled by the mean of the
// refNeighbours reference timings on each side of it, and only by those.
func TestTimelineRescales(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	ref := func(startMS int, wall, cpu float64) stamped {
		return stamped{at(startMS), at(startMS + 1), speed{wall, cpu}}
	}
	tl := &timeline{workers: 2, refs: []stamped{
		ref(0, 0.100, 0.100), // too far before the job: not used
		ref(10, 0.010, 0.020),
		ref(20, 0.030, 0.060),
		// the job runs from 30 to 40 ms
		ref(40, 0.020, 0.040),
		ref(50, 0.020, 0.040),
		ref(60, 0.100, 0.100), // too far after: not used
	}}
	wall, cpu := tl.rescale(span{start: at(30), end: at(40), wall: 0.5, cpu: 0.8})
	// Mean reference: 20 ms wall, 40 ms CPU, twice the nominal 10 ms (and
	// 20 ms CPU on two goroutines): the host ran at half speed.
	if math.Abs(wall-0.25) > 1e-12 || math.Abs(cpu-0.4) > 1e-12 {
		t.Errorf("rescaled to %v s wall, %v s CPU; want 0.25 and 0.4", wall, cpu)
	}

	// At the ends of the timeline the neighbours on one side suffice.
	first := tl.around(at(-5), at(-1))
	if math.Abs(first.wall-0.055) > 1e-12 {
		t.Errorf("before every reference: mean wall %v, want 0.055", first.wall)
	}
	// With no reference timing at all the work stays as measured.
	empty := &timeline{workers: 2}
	if wall, cpu := empty.rescale(span{start: at(0), end: at(1), wall: 0.5, cpu: 0.8}); wall != 0.5 || cpu != 0.8 {
		t.Errorf("empty timeline rescaled to %v, %v", wall, cpu)
	}
}

// TestReferenceRuns: the reference does its work on every goroutine and
// reports positive times.
func TestReferenceRuns(t *testing.T) {
	s := reference(2)
	if s.wall <= 0 || s.cpu <= 0 {
		t.Errorf("reference timing %+v, want positive wall and CPU time", s)
	}
	if len(refTables) < 2 {
		t.Errorf("reference kept %d tables, want one per goroutine", len(refTables))
	}
}
