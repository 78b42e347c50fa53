package monitor

import (
	"fmt"
	"sync"
	"testing"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/synth"
)

// recordingDetector captures the labels it saw, so tests can assert both
// delivery and per-stream ordering across the batched path.
type recordingDetector struct {
	mu     sync.Mutex
	labels []int
}

func (r *recordingDetector) Update(o detectors.Observation) detectors.State {
	r.mu.Lock()
	r.labels = append(r.labels, o.TrueClass)
	r.mu.Unlock()
	return detectors.None
}
func (r *recordingDetector) Reset()       {}
func (r *recordingDetector) Name() string { return "recorder" }
func (r *recordingDetector) seen() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.labels...)
}

// blockingDetector parks every Update on a channel, letting tests hold a
// shard busy while its queue fills.
type blockingDetector struct{ gate chan struct{} }

func (b *blockingDetector) Update(detectors.Observation) detectors.State {
	<-b.gate
	return detectors.None
}
func (b *blockingDetector) Reset()       {}
func (b *blockingDetector) Name() string { return "blocker" }

// alwaysDrift signals Drift on every observation.
type alwaysDrift struct{}

func (alwaysDrift) Update(detectors.Observation) detectors.State { return detectors.Drift }
func (alwaysDrift) Reset()                                       {}
func (alwaysDrift) Name() string                                 { return "alwaysDrift" }

func TestIngestBatchMatchesPerInstanceIngest(t *testing.T) {
	// The same pre-drawn drifting workload through two monitors — one fed
	// per instance, one in 64-observation blocks — must produce identical
	// ingest and drift counts (RBM-IM's batched path is state-identical).
	const instances = 12000
	gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 3}, 3, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]detectors.Observation, instances)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	run := func(batch int) Snapshot {
		m, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < instances; start += batch {
			end := start + batch
			if end > instances {
				end = instances
			}
			if batch == 1 {
				if err := ingestOne(m, "s", obs[start]); err != nil {
					t.Error(err)
				}
			} else if err := m.IngestBatch("s", obs[start:end]); err != nil {
				t.Error(err)
			}
		}
		m.Close()
		return m.Snapshot()
	}
	single := run(1)
	batched := run(64)
	if single.Ingested != batched.Ingested || single.Ingested != instances {
		t.Fatalf("ingested: single=%d batched=%d want %d", single.Ingested, batched.Ingested, instances)
	}
	if single.Drifts != batched.Drifts || single.Warnings != batched.Warnings {
		t.Fatalf("signals diverge: single drifts=%d warnings=%d, batched drifts=%d warnings=%d",
			single.Drifts, single.Warnings, batched.Drifts, batched.Warnings)
	}
}

func TestIngestBatchPreservesPerStreamOrder(t *testing.T) {
	recorders := map[string]*recordingDetector{}
	var mu sync.Mutex
	m, err := New(Config{
		Shards: 2,
		NewDetector: func(id string) (detectors.Detector, error) {
			r := &recordingDetector{}
			mu.Lock()
			recorders[id] = r
			mu.Unlock()
			return r, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0}
	const rounds = 200
	for i := 0; i < rounds; i++ {
		// Interleave singles and blocks on two streams; per-stream label
		// order must come out monotonically increasing.
		if err := ingestOne(m, "a", detectors.Observation{X: x, TrueClass: 3 * i}); err != nil {
			t.Fatal(err)
		}
		block := []detectors.Observation{
			{X: x, TrueClass: 3*i + 1},
			{X: x, TrueClass: 3*i + 2},
		}
		if err := m.IngestBatch("a", block); err != nil {
			t.Fatal(err)
		}
		if err := m.IngestBatch("b", block[:1]); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	a := recorders["a"].seen()
	if len(a) != 3*rounds {
		t.Fatalf("stream a saw %d observations, want %d", len(a), 3*rounds)
	}
	for i := 1; i < len(a); i++ {
		if a[i] <= a[i-1] {
			t.Fatalf("stream a order violated at %d: %d after %d", i, a[i], a[i-1])
		}
	}
	if b := recorders["b"].seen(); len(b) != rounds {
		t.Fatalf("stream b saw %d observations, want %d", len(b), rounds)
	}
}

func TestIngestBatchCopiesBuffers(t *testing.T) {
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// One backing array reused across calls, including Scores: the monitor
	// must have slab-copied everything before returning.
	x := make([]float64, 8)
	scores := make([]float64, 3)
	block := make([]detectors.Observation, 4)
	for i := 0; i < 64; i++ {
		for j := range block {
			for k := range x {
				x[k] = float64(i + j + k)
			}
			scores[0] = float64(i)
			block[j] = detectors.Observation{X: x, TrueClass: i % 3, Predicted: i % 3, Scores: scores}
		}
		if err := m.IngestBatch("reused", block); err != nil {
			t.Fatal(err)
		}
		for k := range x {
			x[k] = -1
		}
		scores[0] = -1
	}
}

func TestIngestBatchEmptyAndClosed(t *testing.T) {
	m, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.IngestBatch("s", nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	m.Close()
	if err := m.IngestBatch("s", make([]detectors.Observation, 1)); err != ErrClosed {
		t.Fatalf("IngestBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := m.TryIngestBatch("s", make([]detectors.Observation, 1)); err != ErrClosed {
		t.Fatalf("TryIngestBatch after Close = %v, want ErrClosed", err)
	}
}

// TestBackpressureDropAccounting pins every shedding path to Snapshot:
// Single-observation and block TryIngestBatch drops on a full queue must surface in Dropped,
// with blocked work eventually processed once the detector unblocks.
func TestBackpressureDropAccounting(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{
		Shards:    1,
		QueueSize: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			return &blockingDetector{gate: gate}, nil
		},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0}
	obs := detectors.Observation{X: x}
	// First observation is pulled by the shard and parks inside Update;
	// the queue (capacity 1) then fills. Keep shedding until a drop is
	// observed — the shard can drain at most one more envelope meanwhile.
	if err := ingestOne(m, "s", obs); err != nil {
		t.Fatal(err)
	}
	sent := uint64(1)
	var dropsSingle, dropsBatch uint64
	for dropsSingle == 0 || dropsBatch == 0 {
		ok, err := m.TryIngestBatch("s", []detectors.Observation{obs})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sent++
		} else {
			dropsSingle++
		}
		ok, err = m.TryIngestBatch("s", []detectors.Observation{obs, obs, obs})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sent += 3
		} else {
			dropsBatch += 3
		}
	}
	close(gate) // unblock every parked Update
	m.Close()
	sn := m.Snapshot()
	if want := dropsSingle + dropsBatch; sn.Dropped != want {
		t.Fatalf("Snapshot.Dropped = %d, want %d (%d single + %d batched)", sn.Dropped, want, dropsSingle, dropsBatch)
	}
	if sn.Ingested != sent {
		t.Fatalf("Snapshot.Ingested = %d, want %d accepted observations", sn.Ingested, sent)
	}
}

// TestEventChannelDropAccounting pins slow-subscriber shedding: with a
// subscription queue of one and no consumer, drifts keep counting but the
// overflow is recorded in SubscriberDropped rather than stalling the shard.
func TestEventChannelDropAccounting(t *testing.T) {
	m, err := New(Config{
		Shards:      1,
		NewDetector: func(string) (detectors.Detector, error) { return alwaysDrift{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	block := make([]detectors.Observation, n)
	for i := range block {
		block[i] = detectors.Observation{X: []float64{0}}
	}
	if err := m.IngestBatch("s", block); err != nil {
		t.Fatal(err)
	}
	m.Close()
	sn := m.Snapshot()
	if sn.Drifts != n {
		t.Fatalf("Snapshot.Drifts = %d, want %d", sn.Drifts, n)
	}
	if sn.SubscriberDropped != n-1 || sub.Dropped() != n-1 {
		t.Fatalf("SubscriberDropped = %d (subscription %d), want %d (queue of 1, never read)",
			sn.SubscriberDropped, sub.Dropped(), n-1)
	}
}

// TestMaxStreamsPerShardAccounting pins stream-cap shedding: observations
// for streams beyond the cap are rejected and counted per observation in
// StreamErrors, while the admitted stream keeps flowing.
func TestMaxStreamsPerShardAccounting(t *testing.T) {
	m, err := New(Config{
		Detector:           core.Config{Features: 1, Classes: 2, Seed: 1},
		Shards:             1,
		MaxStreamsPerShard: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0}
	obs := detectors.Observation{X: x}
	if err := ingestOne(m, "admitted", obs); err != nil {
		t.Fatal(err)
	}
	const rejectedSingles, rejectedBlock = 5, 7
	for i := 0; i < rejectedSingles; i++ {
		if err := ingestOne(m, fmt.Sprintf("over-%d", i), obs); err != nil {
			t.Fatal(err)
		}
	}
	block := make([]detectors.Observation, rejectedBlock)
	for i := range block {
		block[i] = obs
	}
	if err := m.IngestBatch("over-batch", block); err != nil {
		t.Fatal(err)
	}
	if err := ingestOne(m, "admitted", obs); err != nil {
		t.Fatal(err)
	}
	m.Close()
	sn := m.Snapshot()
	if want := uint64(rejectedSingles + rejectedBlock); sn.StreamErrors != want {
		t.Fatalf("Snapshot.StreamErrors = %d, want %d rejected observations", sn.StreamErrors, want)
	}
	if sn.Streams != 1 || sn.Ingested != 2 {
		t.Fatalf("streams=%d ingested=%d, want the admitted stream's 2 observations only", sn.Streams, sn.Ingested)
	}
}

// TestEvictFlushesQueuedObservations: an Evict arriving in the same
// micro-batch as queued observations must let the detector consume them
// before the stream is removed.
func TestEvictFlushesQueuedObservations(t *testing.T) {
	var rec *recordingDetector
	var mu sync.Mutex
	m, err := New(Config{
		Shards: 1,
		NewDetector: func(string) (detectors.Detector, error) {
			r := &recordingDetector{}
			mu.Lock()
			rec = r
			mu.Unlock()
			return r, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]detectors.Observation, 10)
	for i := range block {
		block[i] = detectors.Observation{X: []float64{0}, TrueClass: i}
	}
	if err := m.IngestBatch("s", block); err != nil {
		t.Fatal(err)
	}
	if err := m.Evict("s"); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if m.Streams() != 0 {
		t.Fatalf("stream survived Evict: %d streams", m.Streams())
	}
	mu.Lock()
	defer mu.Unlock()
	if rec == nil || len(rec.seen()) != 10 {
		t.Fatalf("detector saw %v observations before eviction, want all 10", rec.seen())
	}
}
