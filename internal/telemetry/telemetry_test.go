package telemetry

import (
	"math/rand"
	"strings"
	"testing"

	"rbmim/internal/telemetry/telemetrytest"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{1 << maxFinite, maxFinite},
		{1<<maxFinite + 1, NumBuckets - 1},
		{1 << 62, NumBuckets - 1},
	}
	for _, c := range cases {
		ns := c.ns
		if ns < 0 {
			ns = 0 // Observe clamps; bucketIndex expects non-negative
		}
		if got := bucketIndex(ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// The index invariant against the exported bound: every value lands in a
	// bucket whose bound covers it and whose predecessor's does not.
	for _, ns := range []int64{1, 2, 3, 7, 100, 1023, 1025, 999999, 1 << 30} {
		i := bucketIndex(ns)
		if bound, ok := BucketBound(i); ok && ns > bound {
			t.Errorf("ns=%d landed in bucket %d with bound %d", ns, i, bound)
		}
		if i > 0 {
			if prev, ok := BucketBound(i - 1); ok && ns <= prev {
				t.Errorf("ns=%d landed in bucket %d but fits bucket %d (bound %d)", ns, i, i-1, prev)
			}
		}
	}
}

func TestObserveAndLoad(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(1000) // bucket 10 (le 1024ns)
	}
	st := h.Load("x")
	if st.Count != 1000 || st.SumNS != 1000*1000 {
		t.Fatalf("Count=%d SumNS=%d", st.Count, st.SumNS)
	}
	if st.Buckets[10] != 1000 {
		t.Fatalf("bucket 10 = %d", st.Buckets[10])
	}
	// All quantiles land inside bucket 10's range (512, 1024].
	for _, q := range []int64{st.P50NS, st.P95NS, st.P99NS} {
		if q <= 512 || q > 1024 {
			t.Fatalf("quantile %d outside (512,1024]", q)
		}
	}
}

func TestNilHistogramIsNoop(t *testing.T) {
	var h *Histogram
	h.Observe(123) // must not panic
	st := h.Load("x")
	if st.Count != 0 || st.Stage != "x" {
		t.Fatalf("nil Load = %+v", st)
	}
}

func TestQuantileOrdering(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		h.Observe(rng.Int63n(10_000_000))
	}
	st := h.Load("x")
	if !(st.P50NS <= st.P95NS && st.P95NS <= st.P99NS) {
		t.Fatalf("quantiles not ordered: p50=%d p95=%d p99=%d", st.P50NS, st.P95NS, st.P99NS)
	}
	// Uniform [0, 10ms): p50 should be within a bucket's 2x error of 5ms.
	if st.P50NS < 2_500_000 || st.P50NS > 10_000_000 {
		t.Fatalf("p50=%d implausible for uniform [0,10ms)", st.P50NS)
	}
}

func TestQuantileEmpty(t *testing.T) {
	if q := Quantile(make([]uint64, NumBuckets), 0.99); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
}

// TestMergeStagesBucketSums is the bucket-sum property test: merging any
// split of observations equals observing them all in one histogram.
func TestMergeStagesBucketSums(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var whole, a, b Histogram
	for i := 0; i < 5000; i++ {
		ns := rng.Int63n(1 << 40) // exercises the overflow bucket too
		whole.Observe(ns)
		if i%3 == 0 {
			a.Observe(ns)
		} else {
			b.Observe(ns)
		}
	}
	merged := MergeStages(
		[]Stage{a.Load("x"), a.Load("other")},
		[]Stage{b.Load("x")},
	)
	var got *Stage
	for i := range merged {
		if merged[i].Stage == "x" {
			got = &merged[i]
		}
	}
	if got == nil {
		t.Fatal("merged output lost stage x")
	}
	want := whole.Load("x")
	if got.Count != want.Count || got.SumNS != want.SumNS {
		t.Fatalf("merged Count=%d SumNS=%d, want %d/%d", got.Count, got.SumNS, want.Count, want.SumNS)
	}
	for i := range want.Buckets {
		if got.Buckets[i] != want.Buckets[i] {
			t.Fatalf("bucket %d: merged %d, want %d", i, got.Buckets[i], want.Buckets[i])
		}
	}
	if got.P50NS != want.P50NS || got.P95NS != want.P95NS || got.P99NS != want.P99NS {
		t.Fatalf("merged quantiles %d/%d/%d, want %d/%d/%d",
			got.P50NS, got.P95NS, got.P99NS, want.P50NS, want.P95NS, want.P99NS)
	}
	// Output sorted by stage name.
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Stage >= merged[i].Stage {
			t.Fatalf("merged stages not sorted: %q >= %q", merged[i-1].Stage, merged[i].Stage)
		}
	}
}

// TestWriteStagesConformance checks the Prometheus exposition invariants:
// HELP/TYPE present, buckets cumulative (monotone nondecreasing), the
// mandatory le="+Inf" bucket equal to _count, and every scrape of the same
// data byte-identical.
func TestWriteStagesConformance(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 4096; i *= 2 {
		h.Observe(i)
	}
	stages := []Stage{h.Load("alpha"), h.Load("beta")}
	var sb1, sb2 strings.Builder
	if err := WriteStages(&sb1, "rbmim_stage_seconds", "help text", stages); err != nil {
		t.Fatal(err)
	}
	if err := WriteStages(&sb2, "rbmim_stage_seconds", "help text", stages); err != nil {
		t.Fatal(err)
	}
	out := sb1.String()
	if out != sb2.String() {
		t.Fatal("two scrapes of identical data differ")
	}
	if !strings.Contains(out, "# HELP rbmim_stage_seconds ") || !strings.Contains(out, "# TYPE rbmim_stage_seconds histogram") {
		t.Fatalf("missing HELP/TYPE:\n%s", out)
	}
	telemetrytest.CheckHistogramExposition(t, out, "rbmim_stage_seconds")
}

func TestObserveAllocsAndParallel(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Observe(Now()) }); n != 0 {
		t.Fatalf("Observe allocates %.1f per op", n)
	}
	t.Run("race", func(t *testing.T) {
		t.Parallel()
		done := make(chan struct{})
		go func() {
			for i := 0; i < 10000; i++ {
				h.Observe(int64(i))
			}
			close(done)
		}()
		for i := 0; i < 100; i++ {
			h.Load("x")
		}
		<-done
	})
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"": Full, "full": Full, "off": Off} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	for _, bad := range []string{"bogus", "basic"} {
		if _, err := ParseLevel(bad); err == nil {
			t.Fatalf("ParseLevel accepted %q", bad)
		}
	}
	if Full.String() != "full" || Off.String() != "off" {
		t.Fatal("Level.String mismatch")
	}
}

func TestNowMonotonic(t *testing.T) {
	a := Now()
	b := Now()
	if a < 0 || b < a {
		t.Fatalf("Now not monotone: %d then %d", a, b)
	}
}
