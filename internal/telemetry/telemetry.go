// Package telemetry provides the serving stack's latency instrumentation:
// fixed-bucket log2 histograms cheap enough for the hot path (two atomic
// adds per observation, no locks, no allocation), quantile summaries
// computed from the buckets, a Prometheus histogram exposition, and a
// bucket-wise merge for cluster-wide aggregation.
//
// # Buckets
//
// A Histogram has NumBuckets buckets with power-of-two nanosecond upper
// bounds: bucket i holds durations in (2^(i-1), 2^i] ns (bucket 0 holds
// [0, 1] ns), and the last bucket is the +Inf overflow. The largest finite
// bound is 2^38 ns ≈ 4.6 min — far beyond any request this stack serves —
// so the overflow bucket only ever catches pathology. Log2 bounds trade
// resolution for speed versus HDR-style histograms: the bucket index is one
// bits.Len64, the memory is a fixed 41 words, and the ~2x relative error
// per bucket is immaterial for tail-latency monitoring (p99 at 1.3ms vs
// 1.9ms reads the same to an operator; see DESIGN.md "Latency telemetry").
//
// Histograms are checkpoint-free by design: they describe the process, not
// the detector state, so they never enter the checkpoint codec and restart
// from zero with the process.
//
// # Clock
//
// Now returns nanoseconds on the process-local monotonic clock (time.Since
// against a package epoch — monotonic by construction, allocation-free).
// Timestamps from Now are only meaningful inside one process and are never
// serialized.
package telemetry

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// NumBuckets is the bucket count of every Histogram: indices 0..NumBuckets-2
// have finite upper bounds 2^i ns; the last bucket is the +Inf overflow.
const NumBuckets = 40

// maxFinite is the index of the largest finite-bounded bucket.
const maxFinite = NumBuckets - 2

var epoch = time.Now()

// Now returns the current reading of the process-local monotonic clock in
// nanoseconds. Subtract two readings to get an elapsed duration for
// Histogram.Observe. It never allocates.
func Now() int64 { return int64(time.Since(epoch)) }

// Level selects how much of the serving stack is instrumented. The zero
// value is Full: telemetry is on by default, and the benchguard bars are
// enforced with it on.
type Level uint8

const (
	// Full instruments every stage: wire service time, client RTT, shard
	// queue-wait, detector update, and checkpoint save/put.
	Full Level = iota
	// Off disables all timing. Detection output is bit-identical at both
	// levels — telemetry only ever reads the clock and already-computed
	// values — so Off exists for measuring the instrumentation itself.
	Off
)

// ParseLevel parses the -telemetry flag values "full" and "off".
func ParseLevel(s string) (Level, error) {
	switch s {
	case "full", "":
		return Full, nil
	case "off":
		return Off, nil
	}
	return Full, fmt.Errorf("telemetry: unknown level %q (want full or off)", s)
}

// String returns the flag spelling of l.
func (l Level) String() string {
	if l == Off {
		return "off"
	}
	return "full"
}

// Histogram is a fixed-bucket log2 latency histogram safe for concurrent
// use. The zero value is ready; a nil *Histogram ignores observations, so
// callers can gate instrumentation by leaving the pointer nil.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Int64
}

// bucketIndex maps a nanosecond duration to its bucket: the smallest i with
// ns <= 2^i, clamped to the overflow bucket.
func bucketIndex(ns int64) int {
	if ns <= 1 {
		return 0
	}
	i := bits.Len64(uint64(ns - 1))
	if i > maxFinite {
		return NumBuckets - 1
	}
	return i
}

// BucketBound returns bucket i's upper bound in nanoseconds, or false for
// the +Inf overflow bucket.
func BucketBound(i int) (int64, bool) {
	if i < 0 || i > maxFinite {
		return 0, false
	}
	return 1 << uint(i), true
}

// Observe records one duration. Negative durations (a clock anomaly) count
// as zero. Observe on a nil Histogram is a no-op.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
}

// Load snapshots the histogram into a Stage named name. Concurrent
// observations may straddle the per-bucket loads; every counter read is
// individually consistent, which is all a monitoring read needs.
func (h *Histogram) Load(name string) Stage {
	st := Stage{Stage: name, Buckets: make([]uint64, NumBuckets)}
	if h == nil {
		return st
	}
	for i := range st.Buckets {
		c := h.buckets[i].Load()
		st.Buckets[i] = c
		st.Count += c
	}
	st.SumNS = h.sum.Load()
	st.fillQuantiles()
	return st
}

// Stage is one instrumented stage's snapshotted histogram: raw buckets for
// merging and Prometheus exposition, plus p50/p95/p99 interpolated from the
// buckets (rounded to whole nanoseconds, so the canonical JSON encoding is
// byte-stable). Buckets[i] counts durations in bucket i (see BucketBound);
// the quantile estimates carry the bucket resolution's ~2x relative error.
type Stage struct {
	Stage   string
	Count   uint64
	SumNS   int64
	P50NS   int64
	P95NS   int64
	P99NS   int64
	Buckets []uint64
}

func (st *Stage) fillQuantiles() {
	st.P50NS = Quantile(st.Buckets, 0.50)
	st.P95NS = Quantile(st.Buckets, 0.95)
	st.P99NS = Quantile(st.Buckets, 0.99)
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds from a
// bucket count vector, interpolating linearly inside the selected bucket.
// An empty histogram estimates 0; ranks landing in the overflow bucket
// return its lower bound (the estimate is then a known underestimate).
func Quantile(buckets []uint64, q float64) int64 {
	var total uint64
	for _, c := range buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		before := cum
		cum += c
		if float64(cum) < rank {
			continue
		}
		var lo, hi int64
		if i > 0 {
			lo = 1 << uint(i-1)
		}
		if i <= maxFinite {
			hi = 1 << uint(i)
		} else {
			return 1 << uint(maxFinite) // overflow bucket: lower bound
		}
		frac := (rank - float64(before)) / float64(c)
		return lo + int64(frac*float64(hi-lo))
	}
	return 1 << uint(maxFinite)
}

// MergeStages folds any number of stage lists into one, summing buckets
// element-wise per stage name and recomputing count, sum, and quantiles
// from the merged buckets. The result is sorted by stage name, so merged
// output (cluster-wide views, server overlays) is deterministic.
func MergeStages(groups ...[]Stage) []Stage {
	byName := map[string]*Stage{}
	for _, g := range groups {
		for i := range g {
			src := &g[i]
			dst, ok := byName[src.Stage]
			if !ok {
				dst = &Stage{Stage: src.Stage, Buckets: make([]uint64, len(src.Buckets))}
				byName[src.Stage] = dst
			}
			if len(src.Buckets) > len(dst.Buckets) {
				dst.Buckets = append(dst.Buckets, make([]uint64, len(src.Buckets)-len(dst.Buckets))...)
			}
			for j, c := range src.Buckets {
				dst.Buckets[j] += c
			}
			dst.SumNS += src.SumNS
		}
	}
	out := make([]Stage, 0, len(byName))
	for _, st := range byName {
		st.Count = 0
		for _, c := range st.Buckets {
			st.Count += c
		}
		st.fillQuantiles()
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

// WriteStages emits stages as one Prometheus histogram family named name:
// per stage, cumulative name_bucket{stage,le} series with le in seconds,
// the mandatory le="+Inf" bucket equal to name_count, then name_sum (in
// seconds) and name_count. Stages must already be sorted by name (Load
// callers assemble them sorted; MergeStages sorts), which makes consecutive
// scrapes byte-identical.
func WriteStages(w io.Writer, name, help string, stages []Stage) error {
	if len(stages) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	for i := range stages {
		st := &stages[i]
		var cum uint64
		for j, c := range st.Buckets {
			cum += c
			le := "+Inf"
			if bound, ok := BucketBound(j); ok {
				le = strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{stage=%q,le=%q} %d\n", name, st.Stage, le, cum); err != nil {
				return err
			}
		}
		if len(st.Buckets) < NumBuckets {
			// A short bucket vector (foreign merge input) still owes the
			// mandatory le="+Inf" bucket.
			if _, err := fmt.Fprintf(w, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, st.Stage, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum{stage=%q} %s\n", name, st.Stage,
			strconv.FormatFloat(float64(st.SumNS)/1e9, 'g', -1, 64)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count{stage=%q} %d\n", name, st.Stage, cum); err != nil {
			return err
		}
	}
	return nil
}
