package monitor

import (
	"sync"
	"testing"
	"time"

	"rbmim/internal/detectors"
)

// driftConfig returns a monitor whose every stream drifts every n
// observations — deterministic event pressure for fan-out tests.
func driftConfig(shards, n int) Config {
	return Config{
		Shards: shards,
		NewDetector: func(string) (detectors.Detector, error) {
			return &driftEveryN{n: n, class: 0}, nil
		},
	}
}

// TestCloseIdempotentAndConcurrent is the regression test for double-Close:
// sequential double Close must be a no-op, and a Close racing another Close
// must not return before the teardown is complete — the contract the network
// server's shutdown path relies on.
func TestCloseIdempotentAndConcurrent(t *testing.T) {
	// A never-drifting detector keeps the subscription deterministically
	// empty, so a received value below can only mean "channel still open".
	m, err := New(driftConfig(4, 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := ingestOne(m, "s", detectors.Observation{X: make([]float64, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	const closers = 8
	var wg sync.WaitGroup
	for i := 0; i < closers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Close()
			// Every Close call, winner or not, must only return once the
			// subscription channel is closed.
			if _, ok := <-sub.Events(); ok {
				t.Error("Close returned before the subscription channel was closed")
			}
		}()
	}
	wg.Wait()
	m.Close() // and once more sequentially
	if got := m.Snapshot().Ingested; got != 64 {
		t.Fatalf("ingested %d observations, want 64", got)
	}
}

// TestSubscribeFanout verifies that every subscriber receives every event.
func TestSubscribeFanout(t *testing.T) {
	m, err := New(driftConfig(2, 10))
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := m.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := m.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Subscribers; got != 2 {
		t.Fatalf("Subscribers = %d, want 2", got)
	}
	o := detectors.Observation{X: make([]float64, 4)}
	for i := 0; i < 50; i++ { // 5 drifts at n=10
		if err := ingestOne(m, "s", o); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	count := func(sub *Subscription) int {
		n := 0
		for range sub.Events() {
			n++
		}
		return n
	}
	if n1, n2 := count(sub1), count(sub2); n1 != 5 || n2 != 5 {
		t.Fatalf("subscribers saw %d and %d events, want 5 and 5", n1, n2)
	}
	if d := sub1.Dropped() + sub2.Dropped(); d != 0 {
		t.Fatalf("unexpected subscriber drops: %d", d)
	}
	if _, err := m.Subscribe(1); err != ErrClosed {
		t.Fatalf("Subscribe after Close = %v, want ErrClosed", err)
	}
}

// TestSubscriberDropAccounting fills a 1-slot subscription that nobody
// drains: the overflow must be dropped and counted — per subscription and in
// the aggregate snapshot — without disturbing a healthy subscriber.
func TestSubscriberDropAccounting(t *testing.T) {
	m, err := New(driftConfig(1, 1)) // every observation drifts
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := m.Subscribe(1024)
	if err != nil {
		t.Fatal(err)
	}
	o := detectors.Observation{X: make([]float64, 4)}
	const obs = 200
	for i := 0; i < obs; i++ {
		if err := ingestOne(m, "s", o); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	received := 0
	for range healthy.Events() {
		received++
	}
	if received != obs {
		t.Fatalf("healthy subscriber saw %d events, want %d", received, obs)
	}
	if d := slow.Dropped(); d != obs-1 {
		t.Fatalf("slow subscriber dropped %d events, want %d", d, obs-1)
	}
	if sn := m.Snapshot(); sn.SubscriberDropped != obs-1 {
		t.Fatalf("SubscriberDropped = %d, want %d", sn.SubscriberDropped, obs-1)
	}
}

// TestSubscriberEviction: with SubscriberEvictDrops set, a subscriber that
// keeps dropping must be evicted — channel closed, Evicted reported, counted
// once in the snapshot — while a healthy subscriber is untouched, and a
// user-initiated Close must never be counted as an eviction.
func TestSubscriberEviction(t *testing.T) {
	cfg := driftConfig(1, 1) // every observation drifts
	cfg.SubscriberEvictDrops = 5
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := m.Subscribe(1) // nobody drains it
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := m.Subscribe(1024)
	if err != nil {
		t.Fatal(err)
	}
	o := detectors.Observation{X: make([]float64, 4)}
	const obs = 50
	for i := 0; i < obs; i++ {
		if err := ingestOne(m, "s", o); err != nil {
			t.Fatal(err)
		}
	}
	// The flush barrier means every publish — and therefore the eviction,
	// which happens inside publish — has completed.
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	// The evicted subscription's channel is closed without Monitor.Close:
	// this range must terminate on its own (one buffered event, then close).
	got := 0
	for range slow.Events() {
		got++
	}
	if got != 1 {
		t.Fatalf("evicted subscriber saw %d events, want 1 (its buffer)", got)
	}
	if !slow.Evicted() {
		t.Fatal("Evicted() = false on a monitor-evicted subscription")
	}
	if d := slow.Dropped(); d < 5 {
		t.Fatalf("evicted subscriber dropped %d events, want >= 5", d)
	}
	sn := m.Snapshot()
	if sn.SubscribersEvicted != 1 {
		t.Fatalf("SubscribersEvicted = %d, want 1", sn.SubscribersEvicted)
	}
	if sn.Subscribers != 1 {
		t.Fatalf("Subscribers = %d, want 1 (healthy only)", sn.Subscribers)
	}
	// A user Close is not an eviction, even on a monitor with the policy on.
	healthy.Close()
	if healthy.Evicted() {
		t.Fatal("user-closed subscription reports Evicted")
	}
	m.Close()
	if got := m.Snapshot().SubscribersEvicted; got != 1 {
		t.Fatalf("SubscribersEvicted after Close = %d, want 1", got)
	}
	n := 0
	for range healthy.Events() {
		n++
	}
	if n != obs {
		t.Fatalf("healthy subscriber saw %d events, want %d", n, obs)
	}
}

// TestSubscriptionCloseDetaches verifies a closed subscription stops
// receiving and that closing twice (or concurrently with Monitor.Close) is
// safe.
func TestSubscriptionCloseDetaches(t *testing.T) {
	m, err := New(driftConfig(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(1024)
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // idempotent
	if got := m.Snapshot().Subscribers; got != 0 {
		t.Fatalf("Subscribers after Close = %d, want 0", got)
	}
	o := detectors.Observation{X: make([]float64, 4)}
	for i := 0; i < 10; i++ {
		if err := ingestOne(m, "s", o); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	n := 0
	for range sub.Events() {
		n++
	}
	if n != 0 {
		t.Fatalf("closed subscription still received %d events", n)
	}
	if d := sub.Dropped(); d != 0 {
		t.Fatalf("closed subscription counted %d drops", d)
	}
}

// TestFlushCheckpointsBarrier verifies the two halves of the contract: with
// a Store, every dirty stream is durably checkpointed when the call returns
// (no Close needed); without one, the call is still a full processing
// barrier.
func TestFlushCheckpointsBarrier(t *testing.T) {
	store := NewMemStore()
	cfg := testConfig(2)
	cfg.Checkpoint = CheckpointConfig{Store: store, Interval: time.Hour} // cadence never fires
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o := detectors.Observation{X: make([]float64, 8)}
	for _, id := range []string{"a", "b", "c"} {
		for i := 0; i < 40; i++ {
			if err := ingestOne(m, id, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := store.Len(); got != 3 {
		t.Fatalf("store holds %d checkpoints after flush, want 3", got)
	}
	sn := m.Snapshot()
	if sn.Ingested != 120 {
		t.Fatalf("flush is not a processing barrier: Ingested = %d, want 120", sn.Ingested)
	}
	if sn.Checkpoints != 3 {
		t.Fatalf("Checkpoints = %d, want 3", sn.Checkpoints)
	}
	// A second flush with no traffic since must write nothing new.
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().Checkpoints; got != 3 {
		t.Fatalf("idle flush wrote checkpoints: %d, want 3", got)
	}
	m.Close()
	if err := m.FlushCheckpoints(); err != ErrClosed {
		t.Fatalf("FlushCheckpoints after Close = %v, want ErrClosed", err)
	}

	// Without a Store the call degrades to a pure barrier.
	m2, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := ingestOne(m2, "only", o); err != nil {
			t.Fatal(err)
		}
	}
	if err := m2.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := m2.Snapshot().Ingested; got != 64 {
		t.Fatalf("storeless flush barrier: Ingested = %d, want 64", got)
	}
	m2.Close()
}
