package main

import (
	"math"
	"sort"
)

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for an
// even count), 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(v, n=4) (the default
// "exclusive" method), which is what the driver judges steadiness with.
// It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sorted(v)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the driver's steadiness figure: the distance between the first
// and third quartile as a share of the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	m := median(v)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// tail returns the highest percentile that still has ten samples beyond it,
// and which percentile that is. With fewer than eleven samples no percentile
// qualifies and it falls back to the median (pct 50).
func tail(v []float64) (value, pct float64) {
	n := len(v)
	if n < 11 {
		return median(v), 50
	}
	s := sorted(v)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(v)))
}
