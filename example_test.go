package rbmim_test

import (
	"bytes"
	"fmt"
	"log"

	"rbmim"
)

// ExampleNewDetector attaches RBM-IM to a multi-class imbalanced stream
// whose concept changes suddenly halfway through, and reports whether the
// detector flagged the change.
func ExampleNewDetector() {
	det, err := rbmim.NewDetector(rbmim.DetectorConfig{Features: 12, Classes: 5, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	// Two different RBF concepts glued together with a sudden transition at
	// instance 15000, reshaped to a 1:50 class imbalance.
	before, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 12, Classes: 5, Seed: 2}, 3, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	after, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 12, Classes: 5, Seed: 3}, 3, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	s := rbmim.NewImbalanced(
		rbmim.NewDriftStream(before, after, rbmim.SuddenDrift, 15000, 0, 4), 50, 4)

	detected := false
	for i := 0; i < 30000; i++ {
		in := s.Next()
		// In production Predicted comes from your classifier; RBM-IM's
		// detection uses the instance and its true label.
		state := det.Update(rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
		if state == rbmim.Drift {
			detected = true
			break
		}
	}
	fmt.Println("drift detected:", detected)
	// Output:
	// drift detected: true
}

// ExampleMonitor multiplexes several independent streams onto one sharded
// Monitor, each stream getting its own RBM-IM detector, and reads the
// aggregate snapshot.
func ExampleMonitor() {
	m, err := rbmim.NewMonitor(rbmim.MonitorConfig{
		Detector: rbmim.DetectorConfig{Features: 8, Classes: 3, Seed: 7},
		Shards:   4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Subscribe to drift events from every stream before the first ingest
	// (none fire here: the streams below are stationary).
	sub, err := m.Subscribe(0)
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		for ev := range sub.Events() {
			log.Printf("stream %s drifted on classes %v", ev.StreamID, ev.Classes)
		}
	}()

	block := make([]rbmim.Observation, 250)
	for s := 0; s < 4; s++ {
		gen, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 8, Classes: 3, Seed: int64(s)}, 3, 0.08)
		if err != nil {
			log.Fatal(err)
		}
		id := fmt.Sprintf("sensor-%d", s)
		for n := 0; n < 2000; n += len(block) {
			for i := range block {
				in := gen.Next()
				block[i] = rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
			}
			// The monitor copies the block; it is reusable on return.
			if err := m.IngestBatch(id, block); err != nil {
				log.Fatal(err)
			}
		}
	}
	m.Close() // drains the shards and closes the subscription

	sn := m.Snapshot()
	fmt.Printf("streams=%d ingested=%d\n", sn.Streams, sn.Ingested)
	// Output:
	// streams=4 ingested=8000
}

// ExampleSaveDetector checkpoints a trained RBM-IM detector and restores it
// into a fresh instance. The restored detector is exact: continuing to feed
// it is bit-identical to the original never having stopped (weights, class
// counts, scaler bounds, trend statistics, partial mini-batch, and RNG
// position are all part of the snapshot).
func ExampleSaveDetector() {
	cfg := rbmim.DetectorConfig{Features: 8, Classes: 3, Seed: 1}
	det, err := rbmim.NewDetector(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 8, Classes: 3, Seed: 2}, 3, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 1234; i++ { // 1234 = mid-mini-batch, which is fine
		in := s.Next()
		det.Update(rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
	}

	// Save to any io.Writer — here a buffer; a file works the same way.
	var snapshot bytes.Buffer
	if err := rbmim.SaveDetector(det, &snapshot); err != nil {
		log.Fatal(err)
	}

	// A fresh process would rebuild the detector with the same config and
	// load the snapshot.
	resumed, err := rbmim.NewDetector(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := rbmim.LoadDetector(resumed, &snapshot); err != nil {
		log.Fatal(err)
	}

	// Both copies now evolve identically.
	identical := true
	for i := 0; i < 2000; i++ {
		in := s.Next()
		o := rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
		if det.Update(o) != resumed.Update(o) {
			identical = false
		}
	}
	fmt.Println("resumed detector tracks the original:", identical)
	// Output:
	// resumed detector tracks the original: true
}

// ExampleNewServer serves a Monitor over TCP: the driftserver wire protocol
// on a loopback port, driven by the zero-allocation rbmim.Client. The
// FlushCheckpoints round trip doubles as a processing barrier, so the
// snapshot that follows it is deterministic.
func ExampleNewServer() {
	m, err := rbmim.NewMonitor(rbmim.MonitorConfig{
		Detector: rbmim.DetectorConfig{Features: 8, Classes: 3, Seed: 7},
		Shards:   2,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rbmim.NewServer(rbmim.ServerConfig{Monitor: m, Addr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}

	c, err := rbmim.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	gen, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 8, Classes: 3, Seed: 2}, 3, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	obs := make([]rbmim.Observation, 64)
	for i := range obs {
		in := gen.Next()
		obs[i] = rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	if err := c.IngestBatch("turbine-7", obs); err != nil { // one frame, one round trip
		log.Fatal(err)
	}
	if err := c.FlushCheckpoints(); err != nil { // barrier: everything above is applied
		log.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streams=%d ingested=%d\n", sn.Streams, sn.Ingested)

	c.Close()
	srv.Close() // network side first ...
	m.Close()   // ... then the monitor (flushes any checkpoint store)
	// Output:
	// streams=1 ingested=64
}

// ExampleClient shows the request vocabulary beyond ingestion: eviction
// (asynchronous, made visible by the flush barrier) and the aggregate
// snapshot, against a server with an in-memory checkpoint store so the
// evicted stream's trained state survives for a later re-ingest.
func ExampleClient() {
	m, err := rbmim.NewMonitor(rbmim.MonitorConfig{
		Detector:   rbmim.DetectorConfig{Features: 8, Classes: 3, Seed: 7},
		Shards:     2,
		Checkpoint: rbmim.CheckpointConfig{Store: rbmim.NewMemStore()},
	})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := rbmim.NewServer(rbmim.ServerConfig{Monitor: m, Addr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	defer srv.Close()

	c, err := rbmim.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	gen, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 8, Classes: 3, Seed: 5}, 3, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	one := func() rbmim.Observation {
		in := gen.Next()
		return rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	for i := 0; i < 10; i++ {
		if err := c.Ingest("sensor-a", one()); err != nil {
			log.Fatal(err)
		}
		if err := c.Ingest("sensor-b", one()); err != nil {
			log.Fatal(err)
		}
	}
	// Evict sensor-a: its trained detector spills to the store, and the
	// flush makes the removal (and the spill) visible.
	if err := c.Evict("sensor-a"); err != nil {
		log.Fatal(err)
	}
	if err := c.FlushCheckpoints(); err != nil {
		log.Fatal(err)
	}
	sn, err := c.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streams=%d ingested=%d checkpoints=%d\n", sn.Streams, sn.Ingested, sn.Checkpoints)
	// Output:
	// streams=1 ingested=20 checkpoints=2
}

// ExampleNewMemStore runs a checkpointed Monitor: the first monitor persists
// every stream's detector state on Close, and a second monitor sharing the
// store transparently rehydrates the trained detector when the stream
// re-ingests — the warm-restart shape a long-running multi-stream service
// needs. Use NewFSStore instead to survive real process restarts.
func ExampleNewMemStore() {
	store := rbmim.NewMemStore()
	cfg := rbmim.MonitorConfig{
		Detector:   rbmim.DetectorConfig{Features: 8, Classes: 3, Seed: 7},
		Shards:     2,
		Checkpoint: rbmim.CheckpointConfig{Store: store},
	}
	s, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 8, Classes: 3, Seed: 9}, 3, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	feed := func(m *rbmim.Monitor, n int) {
		for i := 0; i < n; i++ {
			in := s.Next()
			if err := m.IngestBatch("sensor-1", []rbmim.Observation{{X: in.X, TrueClass: in.Y, Predicted: in.Y}}); err != nil {
				log.Fatal(err)
			}
		}
	}

	m1, err := rbmim.NewMonitor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	feed(m1, 500)
	m1.Close() // flushes every stream's state to the store

	m2, err := rbmim.NewMonitor(cfg)
	if err != nil {
		log.Fatal(err)
	}
	feed(m2, 500) // first ingest rehydrates the trained detector
	m2.Close()

	sn := m2.Snapshot()
	fmt.Println("streams rehydrated from the store:", sn.Rehydrated)
	// Output:
	// streams rehydrated from the store: 1
}

// ExampleDialCluster drives a two-member driftserver fleet through the
// consistent-hash cluster client: streams route to members by the ring,
// and a live stream hops between members via checkpoint handoff without
// losing its trained detector — the migrated stream continues exactly
// where it left off, counted by the target's rehydration counter.
func ExampleDialCluster() {
	// Two fleet members, identically configured (same detector template,
	// each with a checkpoint store — migration serializes through it).
	var addrs []string
	for i := 0; i < 2; i++ {
		m, err := rbmim.NewMonitor(rbmim.MonitorConfig{
			Detector:   rbmim.DetectorConfig{Features: 8, Classes: 3, Seed: 7},
			Shards:     2,
			Checkpoint: rbmim.CheckpointConfig{Store: rbmim.NewMemStore()},
		})
		if err != nil {
			log.Fatal(err)
		}
		srv, err := rbmim.NewServer(rbmim.ServerConfig{Monitor: m, Addr: "127.0.0.1:0"})
		if err != nil {
			log.Fatal(err)
		}
		defer m.Close()
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}

	cc, err := rbmim.DialCluster(rbmim.ClusterConfig{Addrs: addrs})
	if err != nil {
		log.Fatal(err)
	}
	defer cc.Close()

	gen, err := rbmim.NewRBF(rbmim.GeneratorConfig{Features: 8, Classes: 3, Seed: 5}, 3, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	feed := func(n int) {
		for i := 0; i < n; i++ {
			for _, id := range []string{"sensor-a", "sensor-b"} {
				in := gen.Next()
				if err := cc.Ingest(id, rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	feed(10)

	// Live-migrate sensor-a to the other member; its trained state travels
	// as a checkpoint frame and later observations follow it there.
	owner, err := cc.Owner("sensor-a")
	if err != nil {
		log.Fatal(err)
	}
	target := addrs[0]
	if target == owner {
		target = addrs[1]
	}
	if err := cc.Migrate("sensor-a", target); err != nil {
		log.Fatal(err)
	}
	feed(10)

	// The fleet-merged snapshot accounts for every observation, and the
	// migrated stream shows up as one rehydration on its target.
	if err := cc.FlushCheckpoints(); err != nil {
		log.Fatal(err)
	}
	sn, err := cc.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streams=%d ingested=%d migrations=%d rehydrated=%d\n",
		sn.Streams, sn.Ingested, cc.Migrations(), sn.Rehydrated)
	// Output:
	// streams=2 ingested=40 migrations=1 rehydrated=1
}
