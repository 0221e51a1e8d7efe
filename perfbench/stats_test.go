package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.90, 90, true}, // samples 91..100 lie beyond
		{99, 0.90, 0, false},  // only nine beyond
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{32, 0.99, 0, false}, // the old serve "p99": max of 32
		{21, 0.50, 11, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNeverMax(t *testing.T) {
	for n := 1; n <= 2000; n++ {
		xs := seq(n)
		for _, p := range []float64{0.5, 0.9, 0.99, 0.999} {
			if v, ok := percentile(xs, p); ok && v == float64(n) {
				t.Fatalf("percentile(n=%d, p=%v) reported the maximum", n, p)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
}
