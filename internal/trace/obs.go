// Search-core observability: SearchObs aggregates the explorer's metric
// handles so the hot loops touch one pointer. Everything here is a pure
// side channel — counters never feed back into exploration decisions — so
// a search instrumented with a live registry produces a byte-identical
// report to one with Obs nil (pinned by harness.TestCheckObsInvariant).
// Every method is a nil-receiver no-op: the explorers call them
// unconditionally and a nil Obs costs one predictable branch.
package trace

import (
	"time"

	"revisionist/internal/obs"
)

// SearchObs is the search core's metric bundle. Build one per registry
// with NewSearchObs; a nil *SearchObs disables all instrumentation. Every
// search reports its frontier and its waves: a pruned search crosses one
// wave barrier per pruneWaveWidth subtrees, an unpruned search is one wave
// over its whole frontier (a single subtree with one worker).
type SearchObs struct {
	runs      *obs.Counter
	truncated *obs.Counter
	pruned    *obs.Counter
	orbits    *obs.Counter
	distinct  *obs.Counter
	waves     *obs.Counter
	waveSecs  *obs.Histogram
	frontier  *obs.Gauge
	wave      *obs.Gauge

	// Clock is the time source for wave latency; nil reads the wall clock.
	// Injectable so instrumented explorations stay deterministic under test.
	Clock obs.Clock
}

// NewSearchObs registers the search-core series on r and returns the
// bundle. A nil registry yields a nil bundle — observability off.
func NewSearchObs(r *obs.Registry) *SearchObs {
	if r == nil {
		return nil
	}
	return &SearchObs{
		runs:      r.Counter("search_runs_total", "schedules explored"),
		truncated: r.Counter("search_runs_truncated_total", "runs cut off at MaxDepth"),
		pruned:    r.Counter("search_runs_pruned_total", "runs cut by the visited-state cache"),
		orbits:    r.Counter("search_orbit_collapses_total", "pruned runs matched through a symmetry orbit"),
		distinct:  r.Counter("search_states_distinct_total", "configurations closed into the visited-state table"),
		waves:     r.Counter("search_waves_total", "wave barriers crossed"),
		waveSecs:  r.Histogram("search_wave_seconds", "wave latency: pool run plus closure publication", obs.LatencyBuckets),
		frontier:  r.Gauge("search_frontier_remaining", "subtree roots not yet explored"),
		wave:      r.Gauge("search_wave_index", "current wave of the exploration"),
	}
}

// RunDone accounts one finished run. cut runs count as pruned; under
// symmetry reduction a cut is an orbit collapse (the cache matched some
// permutation of the configuration, not necessarily this one).
func (m *SearchObs) RunDone(truncated, cut, symmetry bool) {
	if m == nil {
		return
	}
	m.runs.Inc()
	if truncated {
		m.truncated.Inc()
	}
	if cut {
		m.pruned.Inc()
		if symmetry {
			m.orbits.Inc()
		}
	}
}

// StateClosed accounts one configuration newly closed into the cache.
func (m *SearchObs) StateClosed() {
	if m == nil {
		return
	}
	m.distinct.Inc()
}

// WaveStart reads the clock for a wave-latency sample (zero time when
// disabled, so callers can thread it unconditionally).
func (m *SearchObs) WaveStart() time.Time {
	if m == nil {
		return time.Time{}
	}
	return m.Clock.Now()
}

// WaveDone accounts one crossed wave barrier: index, latency since start,
// and the remaining frontier.
func (m *SearchObs) WaveDone(index int, start time.Time, remaining int) {
	if m == nil {
		return
	}
	m.waves.Inc()
	m.waveSecs.ObserveSince(start, m.Clock)
	m.wave.Set(int64(index))
	m.frontier.Set(int64(remaining))
}

// SetFrontier publishes the initial frontier size.
func (m *SearchObs) SetFrontier(n int) {
	if m == nil {
		return
	}
	m.frontier.Set(int64(n))
}

// Runs reads the explored-run counter — the live progress signal the CLI
// -progress ticker prints (0 when disabled).
func (m *SearchObs) Runs() int64 {
	if m == nil {
		return 0
	}
	return m.runs.Value()
}

// Pruned reads the cache-cut run counter.
func (m *SearchObs) Pruned() int64 {
	if m == nil {
		return 0
	}
	return m.pruned.Value()
}

// Distinct reads the closed-configuration counter.
func (m *SearchObs) Distinct() int64 {
	if m == nil {
		return 0
	}
	return m.distinct.Value()
}

// Frontier reads the remaining-subtree gauge.
func (m *SearchObs) Frontier() int64 {
	if m == nil {
		return 0
	}
	return m.frontier.Value()
}

// Wave reads the current wave index.
func (m *SearchObs) Wave() int64 {
	if m == nil {
		return 0
	}
	return m.wave.Value()
}
