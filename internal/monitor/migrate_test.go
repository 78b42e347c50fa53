package monitor

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"rbmim/internal/detectors"
)

// TestExportImportEquivalence is the migration acceptance gate at the
// monitor level: exporting a stream mid-workload from one monitor and
// importing it into another must produce the identical drift decisions —
// same count, same per-stream sequence positions — as one uninterrupted
// monitor, and must leave the detector in byte-identical state (the final
// exports of both runs compare equal). The cut lands mid-mini-batch so the
// partially filled batch travels through the handoff frame too.
func TestExportImportEquivalence(t *testing.T) {
	const n, cut = 2400, 1237
	obs := ckptObs(3, n, 6, 3)

	feed := func(m *Monitor, seg []detectors.Observation) {
		t.Helper()
		for _, o := range seg {
			if err := ingestOne(m, "sensor-7", o); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Control: one uninterrupted monitor.
	var control driftCollector
	cm, err := New(Config{Detector: ckptDetectorConfig(), Shards: 1, OnDrift: control.onDrift})
	if err != nil {
		t.Fatal(err)
	}
	feed(cm, obs)
	if err := cm.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	controlState, err := cm.ExportStream("sensor-7")
	if err != nil {
		t.Fatal(err)
	}
	cm.Close()

	// Migrated: first half on source, export/import, second half on target.
	var col driftCollector
	src, err := New(Config{Detector: ckptDetectorConfig(), Shards: 1, OnDrift: col.onDrift})
	if err != nil {
		t.Fatal(err)
	}
	feed(src, obs[:cut])
	state, err := src.ExportStream("sensor-7")
	if err != nil {
		t.Fatal(err)
	}
	// The export removes the stream from the source.
	if ids, err := src.StreamIDs(); err != nil || len(ids) != 0 {
		t.Fatalf("source still hosts %v after export (err %v)", ids, err)
	}
	src.Close()

	dst, err := New(Config{Detector: ckptDetectorConfig(), Shards: 4, OnDrift: col.onDrift})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportStream("sensor-7", state); err != nil {
		t.Fatal(err)
	}
	feed(dst, obs[cut:])
	if err := dst.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if got := dst.Snapshot().Rehydrated; got != 1 {
		t.Fatalf("target Rehydrated = %d, want 1 (imports count as rehydrations)", got)
	}
	migratedState, err := dst.ExportStream("sensor-7")
	if err != nil {
		t.Fatal(err)
	}
	dst.Close()

	if len(control.seqs) == 0 {
		t.Fatal("control run detected no drifts; the test stream is too tame")
	}
	if len(col.seqs) != len(control.seqs) {
		t.Fatalf("drift counts differ: migrated %d vs uninterrupted %d", len(col.seqs), len(control.seqs))
	}
	for i := range control.seqs {
		if control.seqs[i] != col.seqs[i] {
			t.Fatalf("drift %d at seq %d migrated vs %d uninterrupted", i, col.seqs[i], control.seqs[i])
		}
	}
	if !bytes.Equal(controlState, migratedState) {
		t.Fatal("final detector states differ: migration is not bit-identical")
	}
}

// TestExportStreamNotFound pins the miss behavior: a stream the monitor
// neither hosts nor has checkpointed is ErrStreamNotFound.
func TestExportStreamNotFound(t *testing.T) {
	m, err := New(Config{Detector: ckptDetectorConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ExportStream("never-seen"); !errors.Is(err, ErrStreamNotFound) {
		t.Fatalf("ExportStream(unknown) = %v, want ErrStreamNotFound", err)
	}
}

// TestExportFallsBackToStore pins export idempotency: an evicted (spilled)
// stream — and a re-sent export whose first reply was lost — serves the
// same bytes from the checkpoint store.
func TestExportFallsBackToStore(t *testing.T) {
	store := NewMemStore()
	m, err := New(Config{
		Detector:   ckptDetectorConfig(),
		Shards:     1,
		Checkpoint: CheckpointConfig{Store: store, Interval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, o := range ckptObs(4, 40, 6, 3) {
		if err := ingestOne(m, "spilled", o); err != nil {
			t.Fatal(err)
		}
	}
	resident, err := m.ExportStream("spilled")
	if err != nil {
		t.Fatal(err)
	}
	// The stream is gone from memory now; a second export (a retry after a
	// lost reply) must read the spilled copy and return identical bytes.
	again, err := m.ExportStream("spilled")
	if err != nil {
		t.Fatalf("re-export after spill: %v", err)
	}
	if !bytes.Equal(resident, again) {
		t.Fatal("re-exported bytes differ from the original export")
	}
}

// TestImportResidentStreamRefused pins the duplicate-handoff refusal the
// cluster layer relies on: importing onto a live stream is an error, and
// the resident detector is untouched.
func TestImportResidentStreamRefused(t *testing.T) {
	m, err := New(Config{Detector: ckptDetectorConfig(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	obs := ckptObs(5, 60, 6, 3)
	for _, o := range obs[:40] {
		if err := ingestOne(m, "busy", o); err != nil {
			t.Fatal(err)
		}
	}
	state, err := m.ExportStream("busy")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ImportStream("busy", state); err != nil {
		t.Fatal(err)
	}
	err = m.ImportStream("busy", state)
	if err == nil || !strings.Contains(err.Error(), "already resident") {
		t.Fatalf("ImportStream(resident) = %v, want already-resident refusal", err)
	}
}

// TestStreamIDs pins the listing across shards.
func TestStreamIDs(t *testing.T) {
	m, err := New(Config{Detector: ckptDetectorConfig(), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	obs := ckptObs(6, 3, 6, 3)
	for _, id := range []string{"c-stream", "a-stream", "b-stream"} {
		if err := ingestOne(m, id, obs[0]); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	ids, err := m.StreamIDs()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a-stream", "b-stream", "c-stream"}
	if len(ids) != len(want) {
		t.Fatalf("StreamIDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("StreamIDs = %v, want %v (sorted)", ids, want)
		}
	}
}

// slowDetector stalls each update so the shard queue visibly fills.
type slowDetector struct{}

func (slowDetector) Update(detectors.Observation) detectors.State {
	time.Sleep(200 * time.Microsecond)
	return detectors.None
}
func (slowDetector) Reset()       {}
func (slowDetector) Name() string { return "slow" }

// TestQueueHighWaterResetsOnFlush pins the windowed high-water satellite: a
// burst drives the mark up, and the next FlushCheckpoints barrier resets it
// to the live occupancy instead of letting it ratchet forever.
func TestQueueHighWaterResetsOnFlush(t *testing.T) {
	m, err := New(Config{
		NewDetector: func(string) (detectors.Detector, error) { return slowDetector{}, nil },
		Shards:      1,
		QueueSize:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	obs := ckptObs(7, 400, 6, 3)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < len(obs); i += 4 {
				_ = ingestOne(m, "hot", obs[i])
			}
		}(p)
	}
	wg.Wait()
	if hw := m.Snapshot().QueueHighWater; hw == 0 {
		t.Fatal("burst never filled the queue; QueueSize too large for the test")
	}
	// Two barriers: the first resets the mark while late envelopes may still
	// trail it; after the second, nothing has entered the queue since the
	// reset, so the mark must be back at (or near) empty.
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushCheckpoints(); err != nil {
		t.Fatal(err)
	}
	if hw := m.Snapshot().QueueHighWater; hw > 1 {
		t.Fatalf("QueueHighWater = %d after quiescent flush, want <= 1 (windowed reset)", hw)
	}
}
