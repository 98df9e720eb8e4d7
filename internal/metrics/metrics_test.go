package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.ObserveMillis(float64(i))
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if h.Mean() != 50.5 {
		t.Errorf("Mean = %v, want 50.5", h.Mean())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramClampsBadSamples(t *testing.T) {
	h := NewHistogram()
	h.ObserveMillis(-5)
	h.ObserveMillis(math.NaN())
	h.ObserveMillis(math.Inf(1))
	if h.Max() != 0 {
		t.Fatalf("bad samples not clamped: max=%v", h.Max())
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.Observe(250 * time.Millisecond)
	if got := h.Quantile(1); got != 250 {
		t.Fatalf("Observe(250ms) recorded %v ms", got)
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		h.ObserveMillis(rng.Float64() * 500)
	}
	cdf := h.CDF(20)
	if len(cdf) != 20 {
		t.Fatalf("CDF returned %d points, want 20", len(cdf))
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].Millis < cdf[i-1].Millis {
			t.Fatalf("CDF not monotone at %d: %v < %v", i, cdf[i].Millis, cdf[i-1].Millis)
		}
		if cdf[i].Fraction <= cdf[i-1].Fraction {
			t.Fatalf("CDF fractions not increasing at %d", i)
		}
	}
	if cdf[len(cdf)-1].Fraction != 1 {
		t.Fatal("CDF does not end at fraction 1")
	}
}

// TestHistogramQuantileQuick property-tests that quantiles are order
// statistics: every quantile is an observed sample and quantiles are
// monotone in q.
func TestHistogramQuantileQuick(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram()
		clean := make(map[float64]bool)
		for _, v := range raw {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			h.ObserveMillis(v)
			clean[v] = true
		}
		if h.Count() == 0 {
			return true
		}
		prev := -1.0
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if !clean[v] || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveMillis(float64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.ObserveMillis(1)
	b.ObserveMillis(3)
	a.Merge(b)
	if a.Count() != 2 || a.Max() != 3 {
		t.Fatalf("Merge failed: count=%d max=%v", a.Count(), a.Max())
	}
}

func TestTimeSeriesOrdering(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(3*time.Second, 30)
	ts.Add(1*time.Second, 10)
	ts.Add(2*time.Second, 20)
	pts := ts.Points()
	if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].At < pts[j].At }) {
		t.Fatal("Points not time ordered")
	}
	if v, ok := ts.MaxValueBetween(0, 2500*time.Millisecond); !ok || v != 20 {
		t.Fatalf("MaxValueBetween = %v, %v; want 20, true", v, ok)
	}
	if _, ok := ts.MaxValueBetween(10*time.Second, 20*time.Second); ok {
		t.Fatal("MaxValueBetween found points in empty range")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); c.Inc(); c.Add(2) }()
	}
	wg.Wait()
	if c.Value() != 30 {
		t.Fatalf("Counter = %d, want 30", c.Value())
	}
}

func TestEWMAConverges(t *testing.T) {
	e := NewEWMA(0.5)
	for i := 0; i < 50; i++ {
		e.Update(10)
	}
	if math.Abs(e.Value()-10) > 1e-9 {
		t.Fatalf("EWMA did not converge: %v", e.Value())
	}
	// A single outlier should move the average by exactly alpha*(delta).
	v := e.Update(20)
	if math.Abs(v-15) > 1e-9 {
		t.Fatalf("EWMA step = %v, want 15", v)
	}
}

func TestEWMAPanicsOnBadAlpha(t *testing.T) {
	for _, alpha := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEWMA(%v) did not panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

func TestFormatCDF(t *testing.T) {
	s := FormatCDF([]CDFPoint{{Millis: 1.5, Fraction: 0.5}})
	if s == "" {
		t.Fatal("FormatCDF returned empty string")
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if v := g.Value(); v != 0 {
		t.Fatalf("zero-value gauge reads %v, want 0", v)
	}
	g.Set(12.5)
	if v := g.Value(); v != 12.5 {
		t.Fatalf("gauge reads %v, want 12.5", v)
	}
	// A gauge is a level, not a count: a later Set replaces, never adds.
	g.Set(3)
	if v := g.Value(); v != 3 {
		t.Fatalf("gauge reads %v, want 3", v)
	}
}

func TestGaugeConcurrent(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(v float64) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Set(v)
				_ = g.Value()
			}
		}(float64(i))
	}
	wg.Wait()
	// Under the race detector this test is about torn reads; the final
	// value is whichever writer landed last.
	if v := g.Value(); v < 0 || v > 7 {
		t.Fatalf("gauge read a value never written: %v", v)
	}
}
