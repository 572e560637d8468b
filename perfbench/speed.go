package main

import (
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is a few virtual CPUs of a shared
// machine. Other guests take CPU time away (steal) and compete for the
// caches, memory bandwidth and hyperthread siblings, and they do so in
// episodes of a minute or more during which all CPU-bound code runs up to
// three times slower. Medians within a run cannot remove a slowdown that
// lasts the whole run, so the timed end-to-end metrics are expressed at a
// fixed machine speed instead: between the stretches of timed work, the
// benchmark times a fixed reference computation of its own, and every
// measured time is multiplied by refNominal over the reference's time
// around it. A change to the program under test moves its own times but
// not the reference's, so it moves the rescaled metric by the same factor;
// a slower host moves both, and the rescaled metric stays put. The raw
// wall times are kept in the run's detail line.

// refNominal is the reference's wall time, in seconds, at the speed the
// rescaled metrics are expressed in. With nproc = 2 the reference takes
// 11–14 ms on a quiet host, so rescaled times read a little below real
// seconds there.
const refNominal = 0.010

// refCPUNominal is the reference's process CPU time at the same speed: one
// refNominal per goroutine, since each keeps a CPU busy.
func refCPUNominal(workers int) float64 { return refNominal * float64(workers) }

// speed is one timing of the reference computation.
type speed struct {
	wall, cpu float64 // seconds
}

// wallScale is the factor that turns a wall time measured at this speed
// into one at the nominal speed.
func (s speed) wallScale() float64 { return ratio(refNominal, s.wall) }

// cpuScale is the same factor for process CPU time.
func (s speed) cpuScale(workers int) float64 { return ratio(refCPUNominal(workers), s.cpu) }

// refNeighbours is how many reference timings on each side of a stretch
// of timed work rescale it. One on each side follows the host best for
// short jobs; two also average over enough of the host's fluctuation for
// the second-long ones, and come out steadier across runs overall.
const refNeighbours = 2

// stamped is a reference timing and when it was taken.
type stamped struct {
	start, end time.Time
	speed
}

// timeline is the reference timings of a run, in the order taken, on the
// parallelism of the timed work.
type timeline struct {
	workers int
	refs    []stamped
}

// take times the reference once and records it.
func (tl *timeline) take() {
	start := time.Now()
	s := reference(tl.workers)
	tl.refs = append(tl.refs, stamped{start, time.Now(), s})
}

// around is the mean of the refNeighbours reference timings that ended
// last before start and the refNeighbours that began first after end.
func (tl *timeline) around(start, end time.Time) speed {
	r := tl.refs
	i := sort.Search(len(r), func(i int) bool { return r[i].end.After(start) })
	j := sort.Search(len(r), func(j int) bool { return !r[j].start.Before(end) })
	var sum speed
	n := 0
	for _, s := range append(r[max(0, i-refNeighbours):i:i], r[j:min(len(r), j+refNeighbours)]...) {
		sum.wall += s.wall
		sum.cpu += s.cpu
		n++
	}
	if n == 0 {
		return speed{refNominal, refCPUNominal(tl.workers)}
	}
	return speed{sum.wall / float64(n), sum.cpu / float64(n)}
}

// span is a stretch of timed work, rescaled as a whole: one job where jobs
// run one at a time, a whole pass where they overlap.
type span struct {
	start, end time.Time
	wall, cpu  float64 // seconds, as measured
}

// rescale returns the span's wall and CPU time at the reference speed.
func (tl *timeline) rescale(sp span) (wall, cpu float64) {
	at := tl.around(sp.start, sp.end)
	return sp.wall * at.wallScale(), sp.cpu * at.cpuScale(tl.workers)
}

// refTable is the reference's working set per goroutine: 2 MiB, about
// what the checker's visited tables and configuration arenas occupy on the
// mid-sized catalog jobs, so the reference meets the same cache pressure.
// The tables are allocated once and kept, so the reference adds the same
// resident memory to every pass and no large garbage to any.
const refTable = 1 << 18

// refTables are the reference goroutines' tables, one per goroutine.
var refTables [][]uint64

// refSteps is the reference's work per goroutine, sized so that it takes
// a little over refNominal on a quiet host. It is done in refRounds rounds with a
// barrier after each, as a parallel search crosses wave barriers: work
// split over both CPUs waits at every barrier for the CPU the host held
// back longest, and the reference has to meet that the same way.
const (
	refSteps  = 36000
	refRounds = 4
)

// refSink keeps the reference's results alive so the compiler cannot drop
// the work.
var refSink struct {
	sync.Mutex
	v uint64
}

// reference times the fixed reference computation on workers goroutines at
// once, the parallelism of the timed work: each allocates its tables,
// hashes short freshly allocated keys into a map and makes dependent
// random reads and writes over its table, which is the mix of allocation,
// hashing, map traffic and cache misses that checking consists of.
func reference(workers int) speed {
	for len(refTables) < workers {
		refTables = append(refTables, make([]uint64, refTable))
	}
	t0, c0 := time.Now(), cpuTime()
	for round := range refRounds {
		var wg sync.WaitGroup
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := refWork(refTables[g], uint64(round*workers+g)+1)
				refSink.Lock()
				refSink.v += v
				refSink.Unlock()
			}()
		}
		wg.Wait()
	}
	return speed{time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()}
}

// refWork is one goroutine's share of one round of the reference over its
// table: deterministic, and independent of every package of the program
// under test.
func refWork(table []uint64, seed uint64) uint64 {
	seen := make(map[uint64][]byte, 1024)
	x, acc := seed*0x9e3779b97f4a7c15|1, uint64(0)
	for i := range refSteps / refRounds {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := make([]byte, 8+x&15)
		h := uint64(14695981039346656037) // FNV-1a over the key
		for j := range key {
			key[j] = byte(x >> (8 * (j & 7)))
			h = (h ^ uint64(key[j])) * 1099511628211
		}
		seen[h&0xfff] = key
		k := (h ^ acc) & (refTable - 1)
		acc += table[k] + uint64(i)
		table[k] = acc
	}
	return acc + uint64(len(seen))
}
