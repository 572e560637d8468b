package main

import (
	"hash/maphash"
	"sync/atomic"
	"time"

	"revisionist/internal/dist"
	"revisionist/internal/dist/wire"
	"revisionist/internal/jobd/crashfs"
	"revisionist/internal/sched"
	"revisionist/internal/trace"
)

// busy counts calls into one layer seam and the wall time spent inside
// them, summed over goroutines.
type busy struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (b *busy) done(start time.Time) { b.add(time.Since(start)) }

func (b *busy) add(d time.Duration) {
	b.calls.Add(1)
	b.ns.Add(int64(d))
}

func (b *busy) seconds() float64 { return float64(b.ns.Load()) / 1e9 }

// searchTap times the search layers from outside, through the public seams
// harness.Resolve hands out: the trace.Factory and the hooks of every
// trace.System it builds (forks included). Every wrapper returns exactly what
// the wrapped call returned.
type searchTap struct {
	factory     busy // Factory: one fresh system per executed schedule
	validate    busy // System.Check: the task validator
	fingerprint busy // System.Fingerprint
	canonical   busy // System.CanonicalFingerprint
	fork        busy // System.Fork
	steps       atomic.Int64
}

// resolver wraps a dist.Resolver so every factory it returns is tapped.
func (t *searchTap) resolver(r dist.Resolver) dist.Resolver {
	return func(job wire.Job) (int, trace.Factory, error) {
		n, f, err := r(job)
		if err != nil {
			return n, f, err
		}
		return n, t.wrapFactory(f), nil
	}
}

func (t *searchTap) wrapFactory(f trace.Factory) trace.Factory {
	return func(gate sched.Stepper) trace.System {
		start := time.Now()
		sys := f(gate)
		t.factory.done(start)
		return t.wrapSystem(sys)
	}
}

func (t *searchTap) wrapSystem(sys trace.System) trace.System {
	if check := sys.Check; check != nil {
		sys.Check = func(res *sched.Result) error {
			start := time.Now()
			err := check(res)
			t.validate.done(start)
			t.steps.Add(int64(res.Steps))
			return err
		}
	}
	if fp := sys.Fingerprint; fp != nil {
		sys.Fingerprint = func(h *maphash.Hash) {
			start := time.Now()
			fp(h)
			t.fingerprint.done(start)
		}
	}
	if cfp := sys.CanonicalFingerprint; cfp != nil {
		sys.CanonicalFingerprint = func(h *maphash.Hash) uint64 {
			start := time.Now()
			v := cfp(h)
			t.canonical.done(start)
			return v
		}
	}
	if fork := sys.Fork; fork != nil {
		sys.Fork = func(gate sched.Stepper) trace.System {
			start := time.Now()
			child := fork(gate)
			t.fork.done(start)
			return t.wrapSystem(child)
		}
	}
	return sys
}

// busySeconds is the time spent inside every tapped search seam.
func (t *searchTap) busySeconds() float64 {
	return t.factory.seconds() + t.validate.seconds() + t.fingerprint.seconds() +
		t.canonical.seconds() + t.fork.seconds()
}

// fsTap wraps the crashfs.FS the daemon's journal writes through.
type fsTap struct {
	fs     crashfs.FS
	write  busy
	bytes  atomic.Int64
	sync   busy
	rename atomic.Int64
}

func (t *fsTap) MkdirAll(dir string) error              { return t.fs.MkdirAll(dir) }
func (t *fsTap) Open(name string) (crashfs.File, error) { return t.fs.Open(name) }

func (t *fsTap) Create(name string) (crashfs.File, error) {
	f, err := t.fs.Create(name)
	if err != nil {
		return f, err
	}
	return &fileTap{File: f, t: t}, nil
}

func (t *fsTap) OpenAppend(name string) (crashfs.File, error) {
	f, err := t.fs.OpenAppend(name)
	if err != nil {
		return f, err
	}
	return &fileTap{File: f, t: t}, nil
}

func (t *fsTap) Rename(oldname, newname string) error {
	t.rename.Add(1)
	return t.fs.Rename(oldname, newname)
}

type fileTap struct {
	crashfs.File
	t *fsTap
}

func (f *fileTap) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.write.done(start)
	f.t.bytes.Add(int64(n))
	return n, err
}

func (f *fileTap) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.sync.done(start)
	return err
}
