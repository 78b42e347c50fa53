package monitor

import (
	"fmt"
	"reflect"
	"testing"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
	"rbmim/internal/telemetry"
)

// driftTrace runs one real-detector sudden-drift workload at the given
// telemetry level and returns the ordered (seq, classes) drift trace plus
// the final snapshot. Everything that feeds a detection decision is seeded,
// so two runs differing only in level must trace identically.
//
// An event's Classes is the union over one UpdateBatch call, so the trace
// also depends on how the shard groups queued observations into calls —
// which is timing. The feed therefore goes to one shard in blocks of
// exactly one mini-batch, each followed by a FlushCheckpoints barrier, so
// every UpdateBatch call is one whole mini-batch at any telemetry level.
func driftTrace(t *testing.T, level telemetry.Level) ([]string, Snapshot) {
	t.Helper()
	const batchSize = 25
	m, err := New(Config{
		Detector: core.Config{
			Features: 8, Classes: 3, Seed: 11,
			BatchSize: batchSize, WarmupBatches: 10, AdaptiveWindow: true,
		},
		Shards:    1,
		Telemetry: level,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := m.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	var trace []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.Events() {
			trace = append(trace, fmt.Sprintf("%s/%d%v", ev.StreamID, ev.Seq, ev.Classes))
		}
	}()
	base := synth.Config{Features: 8, Classes: 3, Seed: 3}
	before, err := synth.NewRBF(base, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	afterCfg := base
	afterCfg.Seed = 99
	after, err := synth.NewRBF(afterCfg, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.NewDriftStream(before, after, stream.Sudden, 6000, 0, 1)
	block := make([]detectors.Observation, batchSize)
	for i := 0; i < 12000; i += batchSize {
		for j := range block {
			in := src.Next()
			block[j] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
		}
		if err := m.IngestBatch("feed", block); err != nil {
			t.Fatal(err)
		}
		if err := m.FlushCheckpoints(); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	<-done
	return trace, m.Snapshot()
}

// TestTelemetryBitIdentity is the acceptance property of the telemetry
// layer: drift decisions with full stage timing are bit-identical to drift
// decisions with timing off. The histograms observe; they never perturb.
func TestTelemetryBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real-detector drift run is slow")
	}
	full, fullSn := driftTrace(t, telemetry.Full)
	off, offSn := driftTrace(t, telemetry.Off)
	if len(full) == 0 {
		t.Fatal("no drift events despite a sudden concept change")
	}
	if !reflect.DeepEqual(full, off) {
		t.Fatalf("drift traces diverge by telemetry level:\nfull: %v\noff:  %v", full, off)
	}
	if fullSn.Drifts != offSn.Drifts || fullSn.Ingested != offSn.Ingested {
		t.Fatalf("counters diverge: full drifts=%d ingested=%d, off drifts=%d ingested=%d",
			fullSn.Drifts, fullSn.Ingested, offSn.Drifts, offSn.Ingested)
	}

	// The level difference shows up only where it should: the stage list.
	stages := make(map[string]uint64)
	for _, st := range fullSn.Latency {
		stages[st.Stage] = st.Count
	}
	for _, want := range []string{"queue_wait", "detector_update"} {
		if stages[want] == 0 {
			t.Fatalf("full telemetry snapshot lacks stage %q (have %v)", want, fullSn.Latency)
		}
	}
	if len(offSn.Latency) != 0 {
		t.Fatalf("telemetry-off snapshot has latency stages %v, want none", offSn.Latency)
	}
}
