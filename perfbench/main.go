// Command perfbench is the repository's benchmark: it sends fixed catalogs
// of check jobs through the public entry points — harness.Check in process,
// or a jobd daemon with dist workers and jobd clients over loopback TCP —
// in a closed loop, verifies every verdict against a hand-written expected
// answer, and prints the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1) as one JSON line. See README.md.
//
//	perfbench --workload check-prune --seed 1 --seconds 20 --trace 0
//	perfbench compare [-bench BENCHMARK.json] base.out [new.out]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload to run: check-plain, check-prune, check-symmetry or checkd-service")
	seed := flag.Uint64("seed", 1, "workload seed: shuffles catalog order and the client each job goes to")
	seconds := flag.Int("seconds", 20, "measuring time; the run ends after the first whole catalog pass past it")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	setupProbe := flag.Bool("setup-probe", false, "resolve the workload's catalog and exit (the timed child of an in-process set-up)")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1, not %d", *traceFlag))
	}
	if *setupProbe {
		if err := (&inProcess{catalog: w.Catalog}).setup(); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	// The load is sized to the machine: nproc search workers in process, and
	// for the service nproc one-slot worker connections and nproc clients.
	nproc := runtime.NumCPU()
	cfg := config{w: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1,
		workers: nproc, clients: nproc, poll: pollInterval, scratch: scratchDir,
		probe: func() error { return runSetupProbe(w.Name) }}

	env := map[string]any{
		"workload":   w.Name,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *traceFlag,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workers":    cfg.workers,
		"clients":    cfg.clients,
		"poll":       cfg.poll.String(),
		"catalog":    catalogNames(w),
	}
	res, detail, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	header, err := json.Marshal(map[string]any{"env": env, "detail": detail})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n%s\n", header, line)
}

// pollInterval is how often a daemon client polls its job's status: fixed,
// and well below the shortest service job (about 10 ms).
const pollInterval = 2 * time.Millisecond

// scratchDir holds the daemon journals, inside the checkout; each run
// removes its own.
const scratchDir = ".bench_build/scratch"

// runSetupProbe runs this program once as a set-up probe: process start,
// package initialization (the protocol registry included) and resolution
// of the workload's catalog.
func runSetupProbe(workload string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, "--workload", workload, "--setup-probe")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("set-up probe: %w", err)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func catalogNames(w *workload) []string {
	names := make([]string, len(w.Catalog))
	for i, e := range w.Catalog {
		names[i] = e.Name
	}
	return names
}

// commit names the code under test: the git HEAD when the working
// directory is the top of a git checkout, else "unknown".
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	top, head, ok := strings.Cut(strings.TrimSpace(string(out)), "\n")
	if !ok || top != wd {
		return "unknown"
	}
	return head
}
