package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n, beyond int
		want      float64
		ok        bool
	}{
		{n: 10, beyond: 1, want: 9},
		{n: 99, beyond: 9, want: 90},
		{n: 100, beyond: 10, want: 90, ok: true},
		{n: 250, beyond: 25, want: 225, ok: true},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(seq(c.n), 0.9)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("p90 of %d samples = %v, %d beyond, ok=%v; want %v, %d, %v", c.n, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.9); ok {
		t.Error("p90 of no samples reported as usable")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// the statistic the benchmark's acceptance rule is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3, 10, 7}, [3]float64{2, 4, 7}},
		{[]float64{0.5, 0.25, 0.125, 1, 2, 4, 8, 16, 32, 64}, [3]float64{0.4375, 3, 20}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}
