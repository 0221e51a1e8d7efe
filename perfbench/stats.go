package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a tail percentile before
// it is reported. With fewer, the "percentile" is just one of the last
// few samples — a max-of-N in disguise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether it may be reported: at least minBeyond samples must lie beyond
// it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if n-1-i < minBeyond {
		return 0, false
	}
	s := sorted(xs)
	return s[i], true
}

// median returns the middle of xs (the mean of the two middle samples
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
