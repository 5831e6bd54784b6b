package main

import (
	"math"
	"sort"
)

// summary is how every measured metric is reported: the median over the
// timed rounds with its quartiles, extremes and sample count beside it.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Raw    []float64 `json:"raw"`
}

// quartiles matches Python's statistics.quantiles(values, n=4), the spread
// rule the benchmark contract is checked with, so the spreads printed here
// are the ones the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	q1, q2, q3 := quartiles(values)
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return summary{Median: q2, Q1: q1, Q3: q3, Min: lo, Max: hi, N: len(values), Raw: values}
}

// iqrShare is the inter-quartile range as a share of the median.
func (s summary) iqrShare() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
