package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

// bench is the part of BENCHMARK.json the comparer reads.
type bench struct {
	EndToEnd []bound `json:"end_to_end"`
}

type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// runs maps workload → metric → values, one per run, in file order.
type runs map[string]map[string][]float64

// readRuns parses benchmark output: every {"env": …} line names the
// workload of the result line that follows it.
func readRuns(r io.Reader) (runs, error) {
	out := runs{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Env *struct {
				Workload string `json:"workload"`
			} `json:"env"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // build chatter and other non-JSON lines
		}
		switch {
		case line.Env != nil:
			workload = line.Env.Workload
		case line.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("result line before any env line")
			}
			if out[workload] == nil {
				out[workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				out[workload][name] = append(out[workload][name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// comparison is one workload × metric row.
type comparison struct {
	base, next []float64
	delta      float64 // relative change of the median, signed
	verdict    string
}

// Verdicts.
const (
	better     = "better"
	worse      = "worse"
	unresolved = "unresolved"
	unchanged  = "unchanged"
	noBound    = "-" // per-layer metrics carry no bound
)

// minPairs is the fewest pairs of runs a gain may be claimed on, and
// winShare the share of pairs the new side must win.
const (
	minPairs = 10
	winShare = 0.9
)

// compare judges one metric. base and next are runs in order; run i of
// each side forms pair i. With no bound (b == nil) only the delta is given.
func compare(base, next []float64, b *bound) comparison {
	_, bm, _ := quartiles(base)
	_, nm, _ := quartiles(next)
	c := comparison{base: base, next: next, delta: ratio(nm-bm, math.Abs(bm))}
	if b == nil || len(base) == 0 || len(next) == 0 {
		c.verdict = noBound
		return c
	}
	lower := b.Better == "lower"
	improves := func(from, to float64) bool { return lower && to < from || !lower && to > from }
	spread := math.Max(relSpread(base), relSpread(next))
	// Worsening in the metric's own direction, as a share of the base median.
	worsening := c.delta
	if !lower {
		worsening = -c.delta
	}
	switch {
	case spread > b.Bound:
		switch {
		case slices.Max(next) < slices.Min(base) && lower || slices.Min(next) > slices.Max(base) && !lower:
			c.verdict = better
		case slices.Min(next) > slices.Max(base) && lower || slices.Max(next) < slices.Min(base) && !lower:
			c.verdict = worse
		default:
			c.verdict = unresolved
		}
	case worsening > b.Bound:
		c.verdict = worse
	case gainHolds(base, next, improves):
		c.verdict = better
	default:
		c.verdict = unchanged
	}
	return c
}

// gainHolds applies the rule for claiming a gain: at least minPairs pairs,
// the new side winning winShare of all of them (ties win for neither), and
// the medians differing by more than the base's interquartile range.
func gainHolds(base, next []float64, improves func(from, to float64) bool) bool {
	pairs := min(len(base), len(next))
	if pairs < minPairs {
		return false
	}
	wins := 0
	for i := range pairs {
		if improves(base[i], next[i]) {
			wins++
		}
	}
	q1, bm, q3 := quartiles(base)
	_, nm, _ := quartiles(next)
	return float64(wins) >= winShare*float64(pairs) && improves(bm, nm) && math.Abs(nm-bm) > q3-q1
}

// relSpread is the interquartile range as a share of the median.
func relSpread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	return ratio(q3-q1, math.Abs(m))
}

func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 && fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [-bench BENCHMARK.json] base.out [new.out]")
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		return err
	}
	var def bench
	if err := json.Unmarshal(raw, &def); err != nil {
		return fmt.Errorf("%s: %w", *benchPath, err)
	}
	sides := make([]runs, fs.NArg())
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sides[i], err = readRuns(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if len(sides) == 1 {
		return writeSpread(w, def, sides[0])
	}
	return writeComparison(w, def, sides[0], sides[1])
}

// writeSpread is the noise report of one set of runs: per workload and
// end-to-end metric the median, the interquartile range as a share of the
// median, and whether that spread fits the metric's bound. Every spread
// except setup_s's must fit for the benchmark to be usable.
func writeSpread(w io.Writer, def bench, set runs) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1..q3\tn\tspread\tbound\tfits\t")
	for _, wl := range sortedKeys(set) {
		for _, b := range def.EndToEnd {
			v, ok := set[wl][b.Name]
			if !ok {
				continue
			}
			q1, m, q3 := quartiles(v)
			spread := relSpread(v)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.4g..%.4g\t%d\t%.1f%%\t%.0f%%\t%v\t\n",
				wl, b.Name, m, q1, q3, len(v), 100*spread, 100*b.Bound, spread <= b.Bound)
		}
	}
	return tw.Flush()
}

func writeComparison(w io.Writer, def bench, base, next runs) error {
	bounds := map[string]*bound{}
	for i := range def.EndToEnd {
		bounds[def.EndToEnd[i].Name] = &def.EndToEnd[i]
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbase median\tbase q1..q3\tn\tnew median\tnew q1..q3\tn\tdelta\tbound\tverdict\t")
	for _, wl := range sortedKeys(base) {
		for _, name := range sortedKeys(base[wl]) {
			next, ok := next[wl][name]
			if !ok {
				continue
			}
			b := bounds[name]
			c := compare(base[wl][name], next, b)
			bq1, bm, bq3 := quartiles(c.base)
			nq1, nm, nq3 := quartiles(c.next)
			boundText := "-"
			if b != nil {
				boundText = fmt.Sprintf("%.0f%%", 100*b.Bound)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.4g..%.4g\t%d\t%.6g\t%.4g..%.4g\t%d\t%+.1f%%\t%s\t%s\t\n",
				wl, name, bm, bq1, bq3, len(c.base), nm, nq1, nq3, len(c.next), 100*c.delta, boundText, c.verdict)
		}
	}
	return tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
