package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // reversed, so sorting matters
	}
	return s
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n        int
		p        float64
		want     float64 // value at the reported rank (samples are 1..n)
		wantUsed float64
	}{
		{1000, 99, 990, 99},    // a true p99: 10 samples beyond
		{2000, 99, 1980, 99},   // 20 beyond
		{500, 99, 490, 98},     // lowered: p99 would leave 5 beyond
		{11, 99, 1, 100 / 11.}, // the only rank with 10 beyond
		{1000, 50, 500, 50},
	}
	for _, c := range cases {
		v, used, ok := tailPercentile(seq(c.n), c.p)
		if !ok || v != c.want || math.Abs(used-c.wantUsed) > 1e-9 {
			t.Errorf("n=%d p%.0f: got %v at p%.3f ok=%v, want %v at p%.3f", c.n, c.p, v, used, ok, c.want, c.wantUsed)
		}
		if beyond := c.n - int(v); beyond < tailBeyond {
			t.Errorf("n=%d p%.0f: only %d samples beyond", c.n, c.p, beyond)
		}
	}
	if _, _, ok := tailPercentile(seq(10), 99); ok {
		t.Error("10 samples: a tail percentile needs more than 10")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
}

func TestHistPercentile(t *testing.T) {
	buckets := []float64{0, 1, 2, 3, math.Inf(1)}
	counts := []uint64{10, 80, 9, 1}
	if v := histPercentile(counts, buckets, 50); v != 2 {
		t.Errorf("p50 = %v, want 2 (upper bound of the second bucket)", v)
	}
	if v := histPercentile(counts, buckets, 99.5); v != 3 {
		t.Errorf("p99.5 = %v, want 3 (lower bound of the open last bucket)", v)
	}
}
