package main

import (
	"math"
	"slices"
)

// median returns the median of v without modifying it; 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) computes them (the "exclusive" method), so the
// spreads -compare prints are the ones an outside checker would compute from
// the same values.
func quartiles(v []float64) (q1, q3 float64) {
	m := len(v)
	if m < 2 {
		if m == 1 {
			return v[0], v[0]
		}
		return 0, 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// quantileSorted is the nearest-rank quantile of an ascending slice: the
// smallest sample with at least a fraction q of the samples at or below it.
// q ≥ 1 is the maximum.
func quantileSorted(s []int64, q float64) int64 {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// medianSorted is the median of an ascending slice, in float so that an even
// count averages the middle pair.
func medianSorted(s []int64) float64 {
	n := len(s)
	if n%2 == 1 {
		return float64(s[n/2])
	}
	return float64(s[n/2-1]+s[n/2]) / 2
}

// summary is a metric's value over the timed segments of one run: the median,
// the quartiles and the sample count beside it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func summarize(v []float64, unit string) summary {
	q1, q3 := quartiles(v)
	return summary{Value: median(v), Unit: unit, Q1: q1, Q3: q3, N: len(v)}
}

// spread is the inter-quartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Value)
}

// ratio is a/b, 0 when b is 0 (a layer that did not run, or a run in which everything failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
