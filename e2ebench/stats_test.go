package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestPercentileNearestRank(t *testing.T) {
	s := seq(100)
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {99.5, 100}, {100, 100}, {0.1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{999, 99, false}, // rank 990, 9 beyond
		{1000, 99, true}, // rank 990, 10 beyond
		{199, 95, false}, // rank 190, 9 beyond
		{200, 95, true},  // rank 190, 10 beyond
		{10000, 99.9, true},
		{9999, 99.9, false},
	} {
		if got := supportsTail(c.n, c.p); got != c.want {
			t.Errorf("supportsTail(%d, %v) = %v, want %v (beyond=%d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
}

func TestSummarize(t *testing.T) {
	st := summarize(seq(1000))
	if st.N != 1000 || st.Min != 1 || st.Max != 1000 || st.Median != 500.5 || st.Mean != 500.5 {
		t.Fatalf("summary %+v", st)
	}
	if st.Q1 != 250 || st.Q3 != 750 {
		t.Errorf("quartiles %v, %v; want 250, 750", st.Q1, st.Q3)
	}
	if st.TailP != 99 || st.Tail != 990 {
		t.Errorf("tail p%v = %v; want p99 = 990", st.TailP, st.Tail)
	}
	if want := math.Sqrt((1000*1000 - 1) / 12.0); math.Abs(st.StdDev-want) > 1e-9 {
		t.Errorf("stddev %v, want %v", st.StdDev, want)
	}
	if small := summarize(seq(30)); small.TailP != 0 || small.Tail != 0 {
		t.Errorf("30 samples support no tail, got p%v = %v", small.TailP, small.Tail)
	}
	if odd := summarize([]float64{3, 1, 2}); odd.Median != 2 {
		t.Errorf("median of {3,1,2} = %v", odd.Median)
	}
}
