package monitor

// Shard-count autotuning. Shards are the monitor's unit of parallelism —
// each one is a goroutine that owns its streams' detectors — so the right
// count is keyed off how many cores the Go scheduler may actually use
// (runtime.GOMAXPROCS), not the machine's nominal CPU count, and corrected
// by what the ring queues observe at runtime: sustained high occupancy with
// schedulable cores to spare means detector work is the bottleneck and more
// shards would help; more shards than cores only adds context switching and
// spreads cache footprint without adding parallelism.

import (
	"fmt"
	"runtime"
)

// AutotuneShards returns the shard count New selects when Config.Shards is
// zero: one worker per schedulable core (runtime.GOMAXPROCS at call time).
// Producers live on the caller's goroutines, so with every core busy the
// workers and producers time-share — which is the throughput-optimal shape
// for a saturated monitor, and harmless for an idle one because parked
// shards cost nothing.
func AutotuneShards() int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return p
	}
	return 1
}

// TuneAdvice is Monitor.TuneAdvice's verdict: the observed saturation signal
// and the shard count it recommends for the next deployment (resharding is a
// restart-time decision — consistent hashing plus the checkpoint store move
// only ~1/n of the streams' state).
type TuneAdvice struct {
	// Shards is the running shard count; GOMAXPROCS the schedulable cores
	// observed now.
	Shards, GOMAXPROCS int
	// Occupancy is the worst per-shard ring high-water mark as a fraction of
	// ring capacity — 1.0 means some shard's queue has been completely full.
	// The mark is windowed, not lifetime: each FlushCheckpoints barrier
	// resets it (see Snapshot.QueueHighWater), so the advice reflects load
	// since the last flush rather than a stale startup peak.
	Occupancy float64
	// Recommended is the advised shard count for these conditions; equal to
	// Shards when the current count looks right.
	Recommended int
	// Reason explains the recommendation in one sentence.
	Reason string
}

// String formats the advice for log lines and CLI output.
func (a TuneAdvice) String() string {
	return fmt.Sprintf("shards=%d gomaxprocs=%d occupancy=%.2f recommended=%d (%s)",
		a.Shards, a.GOMAXPROCS, a.Occupancy, a.Recommended, a.Reason)
}

// occupancyHigh is the high-water fraction above which queues count as
// saturating: above it, backpressure (blocked IngestBatch calls) is imminent.
const occupancyHigh = 0.5

// TuneAdvice inspects the ring high-water marks and current GOMAXPROCS and
// recommends a shard count. It is cheap (atomic reads) and safe to call at
// any time, including after Close.
func (m *Monitor) TuneAdvice() TuneAdvice {
	a := TuneAdvice{
		Shards:      len(m.shards),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Recommended: len(m.shards),
	}
	for _, s := range m.shards {
		if f := float64(s.in.highWater.Load()) / float64(s.in.cap()); f > a.Occupancy {
			a.Occupancy = f
		}
	}
	switch {
	case a.Shards > a.GOMAXPROCS:
		a.Recommended = a.GOMAXPROCS
		a.Reason = "more shards than schedulable cores: extra shards add scheduling and cache pressure without parallelism"
	case a.Occupancy >= occupancyHigh && a.Shards < a.GOMAXPROCS:
		if a.Recommended = a.Shards * 2; a.Recommended > a.GOMAXPROCS {
			a.Recommended = a.GOMAXPROCS
		}
		a.Reason = "queues saturating with schedulable cores to spare: detector work is the bottleneck, add shards"
	case a.Occupancy >= occupancyHigh:
		a.Reason = "queues saturating with every core occupied: the box is the bottleneck, scale out instead"
	default:
		a.Reason = "balanced: queues shallow at the current shard count"
	}
	return a
}
