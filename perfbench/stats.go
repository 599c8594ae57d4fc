package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (nearest rank on the sorted copy),
// or NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value of xs, or the mean of the two middle values
// when len(xs) is even.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond is how many samples lie above the q-quantile: the support a
// reported percentile has.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }
