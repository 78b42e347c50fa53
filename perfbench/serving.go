package main

import (
	"fmt"
	"sync"
	"time"

	"rbmim/internal/monitor"
	"rbmim/internal/server"
	"rbmim/internal/telemetry"
)

// collector gathers drift events from server subscriptions.
type collector struct {
	ids   map[string]int
	clock time.Time
	wg    sync.WaitGroup

	mu      sync.Mutex
	events  []driftEvent
	unknown int
}

func newCollector(ids []string, clock time.Time) *collector {
	c := &collector{ids: make(map[string]int, len(ids)), clock: clock}
	for i, id := range ids {
		c.ids[id] = i
	}
	return c
}

// follow drains one subscription until it closes. Events of one monitor
// flush share their detection time, which therefore identifies the
// detector call for the class-union rule.
func (c *collector) follow(sub *server.Subscription) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for ev := range sub.Events() {
			arrive := int64(time.Since(c.clock))
			c.mu.Lock()
			if s, ok := c.ids[ev.StreamID]; ok {
				c.events = append(c.events, driftEvent{
					Stream: s, Seq: int(ev.Seq), Classes: sortedInts(ev.Classes),
					Group: ev.At.UnixNano(), Arrive: arrive,
				})
			} else {
				c.unknown++
			}
			c.mu.Unlock()
		}
	}()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// waitFor waits until n events have arrived or the timeout passes.
func (c *collector) waitFor(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for c.count() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// snapshot returns the collected events; call after the subscriptions
// closed or waitFor succeeded.
func (c *collector) snapshot() []driftEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]driftEvent(nil), c.events...)
}

// checkConservation enforces the monitor's accounting identity at the
// final barrier.
func checkConservation(o *outcome, sn monitor.Snapshot) {
	if sn.Received != sn.Ingested || sn.Queued != 0 || sn.Rejected != 0 {
		o.fail("conservation at the final barrier: received %d, ingested %d, queued %d, rejected %d",
			sn.Received, sn.Ingested, sn.Queued, sn.Rejected)
	}
}

// stageDiff returns the named stage's observations between two readings.
func stageDiff(post, pre []telemetry.Stage, name string) telemetry.Stage {
	out := telemetry.Stage{Stage: name, Buckets: make([]uint64, telemetry.NumBuckets)}
	for _, st := range post {
		if st.Stage == name {
			copy(out.Buckets, st.Buckets)
			out.SumNS = st.SumNS
		}
	}
	for _, st := range pre {
		if st.Stage == name {
			for i, c := range st.Buckets {
				if i < len(out.Buckets) {
					out.Buckets[i] -= c
				}
			}
			out.SumNS -= st.SumNS
		}
	}
	for _, c := range out.Buckets {
		out.Count += c
	}
	out.P50NS = telemetry.Quantile(out.Buckets, 0.50)
	out.P95NS = telemetry.Quantile(out.Buckets, 0.95)
	out.P99NS = telemetry.Quantile(out.Buckets, 0.99)
	return out
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// skew is max over mean of xs (1 for a perfectly even spread).
func skew(xs []uint64) float64 {
	var sum, mx uint64
	for _, x := range xs {
		sum += x
		mx = max(mx, x)
	}
	if sum == 0 {
		return 0
	}
	return float64(mx) * float64(len(xs)) / float64(sum)
}

// shardDiff returns post minus pre per shard.
func shardDiff(pre, post []uint64) []uint64 {
	out := append([]uint64(nil), post...)
	for i := range out {
		if i < len(pre) {
			out[i] -= pre[i]
		}
	}
	return out
}

// serverLayers stores the server-side per-layer metrics read from the
// program's own counters and histograms over a timed phase: pre and post
// are the (merged) snapshots around it, kind the ingest kind in use
// ("ingest" or "ingest_batch"), and shards the per-shard ingest counts
// over every member.
func serverLayers(o *outcome, pre, post monitor.Snapshot, kind string, shards []uint64) {
	m := o.metrics
	qw := stageDiff(post.Latency, pre.Latency, "queue_wait")
	du := stageDiff(post.Latency, pre.Latency, "detector_update")
	m["monitor.queue_wait_p50_us"], m["monitor.queue_wait_p99_us"] = us(qw.P50NS), us(qw.P99NS)
	m["monitor.detector_update_p50_us"], m["monitor.detector_update_p99_us"] = us(du.P50NS), us(du.P99NS)
	m["monitor.shard_skew"] = skew(shards)
	m["monitor.events_dropped"] = float64(post.SubscriberDropped - pre.SubscriberDropped)
	save := stageDiff(post.Latency, pre.Latency, "checkpoint_save")
	put := stageDiff(post.Latency, pre.Latency, "checkpoint_put")
	m["monitor.ckpt.saves"] = float64(post.Checkpoints - pre.Checkpoints)
	m["monitor.ckpt.save_p50_us"] = us(save.P50NS)
	m["monitor.ckpt.put_p50_us"], m["monitor.ckpt.put_p99_us"] = us(put.P50NS), us(put.P99NS)
	m["monitor.ckpt.errors"] = float64(post.CheckpointErrors - pre.CheckpointErrors)
	serve := stageDiff(post.Latency, pre.Latency, "serve_"+kind)
	m["server.serve_p50_us"], m["server.serve_p99_us"] = us(serve.P50NS), us(serve.P99NS)
	var served uint64
	for _, st := range post.Latency {
		if len(st.Stage) > 6 && st.Stage[:6] == "serve_" {
			served += stageDiff(post.Latency, pre.Latency, st.Stage).Count
		}
	}
	if served > 0 {
		m["server.coalesced_frac"] = float64(post.RepliesCoalesced-pre.RepliesCoalesced) / float64(served)
	}
	m["server.inflight_high_water"] = float64(post.InFlightHighWater)
	m["server.shedded"] = float64(post.Shedded - pre.Shedded)
	m["server.dedup_hits"] = float64(post.DedupHits - pre.DedupHits)
	o.logf("server %s: serve p50 %.1fus p99 %.1fus; queue wait p50 %.1fus p99 %.1fus; detector update p50 %.1fus p99 %.1fus; checkpoints %d (put p50 %.1fus)",
		kind, us(serve.P50NS), us(serve.P99NS), us(qw.P50NS), us(qw.P99NS), us(du.P50NS), us(du.P99NS),
		post.Checkpoints-pre.Checkpoints, us(put.P50NS))
}

// rttCheck cross-checks the benchmark-timed ack against the client's own
// RTT histogram. The histogram has log2 buckets, so agreement within a
// factor of two is all it can show.
func rttCheck(o *outcome, ackP50, rttP50 float64) {
	const tolerance = 2.0
	if rttP50 <= 0 || ackP50 <= 0 {
		o.logf("cross-check ack vs server.client.rtt: no samples")
		return
	}
	r := ackP50 / rttP50
	flag := "agree"
	if r > tolerance || r < 1/tolerance {
		flag = "DISAGREE"
	}
	o.logf("cross-check ack p50 %.1fus vs server.client.rtt p50 %.1fus: ratio %.2f, tolerance x%.0f: %s", ackP50, rttP50, r, tolerance, flag)
}

// serverStageMean returns a stage's mean busy time per observation in µs.
func serverStageMean(st telemetry.Stage, obs int64) float64 {
	if obs == 0 {
		return 0
	}
	return float64(st.SumNS) / 1e3 / float64(obs)
}

func describeSnapshot(sn monitor.Snapshot) string {
	return fmt.Sprintf("received %d ingested %d queued %d rejected %d drifts %d subscriber-dropped %d",
		sn.Received, sn.Ingested, sn.Queued, sn.Rejected, sn.Drifts, sn.SubscriberDropped)
}
