package monitor

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
)

// TestConcurrentSoakWithConservation is the CI -race soak: at least eight
// goroutines hammer every externally visible mutation path at once —
// blocking and non-blocking ingest, eviction, checkpoint flush barriers,
// subscription churn, and snapshot polling — against small rings so the
// full-queue and backpressure paths fire constantly. After a final flush
// barrier the counters must balance exactly:
//
//	accepted (producer side) == Received == Ingested + Rejected
//	Queued == 0
//	attempted == accepted + Dropped
//
// Any lost wakeup deadlocks the test; any racy counter breaks the equations;
// any memory race trips the detector.
func TestConcurrentSoakWithConservation(t *testing.T) {
	const (
		producers = 6
		perProd   = 400
		batchLen  = 8
		streams   = 24
	)
	store := NewMemStore()
	m, err := New(Config{
		Detector:   core.Config{Features: 4, Classes: 2, Seed: 5},
		Shards:     4,
		QueueSize:  8, // tiny: keeps rings saturated
		Checkpoint: CheckpointConfig{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	var attempted, accepted, dropped atomic.Uint64
	var wgProd, wgChurn sync.WaitGroup
	stop := make(chan struct{})

	// Blocking + non-blocking producers.
	for p := 0; p < producers; p++ {
		wgProd.Add(1)
		go func(p int) {
			defer wgProd.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < perProd; i++ {
				id := fmt.Sprintf("soak-%d", rng.Intn(streams))
				obs := make([]detectors.Observation, batchLen)
				for j := range obs {
					obs[j] = detectors.Observation{X: []float64{rng.Float64(), 1, 2, 3}}
				}
				switch i % 3 {
				case 0:
					attempted.Add(batchLen)
					if err := m.IngestBatch(id, obs); err != nil {
						t.Errorf("IngestBatch: %v", err)
						return
					}
					accepted.Add(batchLen)
				case 1:
					attempted.Add(batchLen)
					ok, err := m.TryIngestBatch(id, obs)
					if err != nil {
						t.Errorf("TryIngestBatch: %v", err)
						return
					}
					if ok {
						accepted.Add(batchLen)
					} else {
						dropped.Add(batchLen)
					}
				default:
					attempted.Add(1)
					ok, err := m.TryIngestBatch(id, []detectors.Observation{obs[0]})
					if err != nil {
						t.Errorf("TryIngestBatch: %v", err)
						return
					}
					if ok {
						accepted.Add(1)
					} else {
						dropped.Add(1)
					}
				}
			}
		}(p)
	}
	// Evictor: spills random streams back to the store mid-traffic.
	wgChurn.Add(1)
	go func() {
		defer wgChurn.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Evict(fmt.Sprintf("soak-%d", rng.Intn(streams))); err != nil {
				t.Errorf("Evict: %v", err)
				return
			}
		}
	}()
	// Flusher: checkpoint barriers while everything is in flight.
	wgChurn.Add(1)
	go func() {
		defer wgChurn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.FlushCheckpoints(); err != nil {
				t.Errorf("FlushCheckpoints: %v", err)
				return
			}
		}
	}()
	// Subscriber churn: attach, drain a little, detach.
	wgChurn.Add(1)
	go func() {
		defer wgChurn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := m.Subscribe(4)
			if err != nil {
				t.Errorf("Subscribe: %v", err)
				return
			}
			for i := 0; i < 8; i++ {
				select {
				case <-sub.Events():
				default:
				}
			}
			sub.Close()
		}
	}()
	// Snapshot poller: reads the counters while they move.
	wgChurn.Add(1)
	go func() {
		defer wgChurn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// No mid-flight equation can hold exactly (the counters are read
			// at different instants); the poller's job is to race the reads
			// against the writers and let -race judge.
			_ = m.Snapshot()
		}
	}()

	// Wait for the producers' fixed quota, stop the churners, then fence all
	// shards so every accepted observation has been applied or rejected.
	wgProd.Wait()
	close(stop)
	wgChurn.Wait()

	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	sn := m.Snapshot()
	if got, want := sn.Received, accepted.Load(); got != want {
		t.Fatalf("Received = %d, producer-side accepted = %d", got, want)
	}
	if got, want := sn.Dropped, dropped.Load(); got != want {
		t.Fatalf("Dropped = %d, producer-side dropped = %d", got, want)
	}
	if attempted.Load() != accepted.Load()+dropped.Load() {
		t.Fatalf("attempted %d != accepted %d + dropped %d", attempted.Load(), accepted.Load(), dropped.Load())
	}
	if sn.Received != sn.Ingested+sn.Rejected {
		t.Fatalf("conservation violated at barrier: Received %d != Ingested %d + Rejected %d", sn.Received, sn.Ingested, sn.Rejected)
	}
	if sn.Queued != 0 {
		t.Fatalf("Queued = %d at barrier, want 0", sn.Queued)
	}
	m.Close()
}
