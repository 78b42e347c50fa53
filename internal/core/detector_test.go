package core

import (
	"bytes"
	"math"
	"testing"

	"rbmim/internal/detectors"
	"rbmim/internal/stats"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

func testConfig(features, classes int) Config {
	return Config{
		Features:       features,
		Classes:        classes,
		BatchSize:      50,
		AdaptiveWindow: true,
		Seed:           1,
	}
}

// runDetector feeds n instances of s through d (labels as both truth and
// prediction; RBM-IM ignores the prediction) and returns the batch indices
// at which drift was signalled.
func runDetector(d *Detector, s stream.Stream, n int) []int {
	var driftAt []int
	for i := 0; i < n; i++ {
		in := s.Next()
		st := d.Update(detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
		if st == detectors.Drift {
			driftAt = append(driftAt, i)
		}
	}
	return driftAt
}

func TestDetectorValidation(t *testing.T) {
	if _, err := NewDetector(Config{Features: 0, Classes: 2}); err == nil {
		t.Fatal("expected error for zero features")
	}
	if _, err := NewDetector(Config{Features: 4, Classes: 1}); err == nil {
		t.Fatal("expected error for one class")
	}
	d, err := NewDetector(testConfig(4, 3))
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	if d.Name() != "RBM-IM" {
		t.Fatalf("Name() = %q", d.Name())
	}
}

func TestDetectorStationaryLowFalseAlarms(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 5}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(testConfig(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	drifts := runDetector(d, gen, n)
	batches := n / d.Config().BatchSize
	if len(drifts) > batches/10 {
		t.Fatalf("stationary stream: %d drift signals over %d batches (too many false alarms)", len(drifts), batches)
	}
}

func TestDetectorFindsSuddenGlobalDrift(t *testing.T) {
	before, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 5}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	after, err := synth.NewRBF(synth.Config{Features: 10, Classes: 4, Seed: 99}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	const driftAt = 10000
	s := stream.NewDriftStream(before, after, stream.Sudden, driftAt, 0, 1)
	d, err := NewDetector(testConfig(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	drifts := runDetector(d, s, 20000)
	found := false
	for _, at := range drifts {
		if at >= driftAt && at <= driftAt+4000 {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("sudden global drift at %d not detected; signals at %v", driftAt, drifts)
	}
}

func TestDetectorFindsLocalDriftSingleClass(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 10, Classes: 5, Seed: 6}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	const driftAt = 12000
	// Drift only class 3.
	s := stream.NewLocalDriftInjector(gen, []int{3}, stream.Sudden, driftAt, 0, 2)
	d, err := NewDetector(testConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	foundOnClass := false
	for i := 0; i < 24000; i++ {
		in := s.Next()
		st := d.Update(detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
		if st == detectors.Drift && i >= driftAt && i <= driftAt+6000 {
			for _, c := range d.DriftClasses() {
				if c == 3 {
					foundOnClass = true
				}
			}
		}
	}
	if !foundOnClass {
		t.Fatal("local drift on class 3 not attributed to class 3")
	}
}

func TestDetectorResetClearsState(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 9}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(testConfig(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	runDetector(d, gen, 3000)
	d.Reset()
	slopes := d.TrendSlopes()
	for k, s := range slopes {
		if s != 0 {
			t.Fatalf("class %d slope %v after Reset, want 0", k, s)
		}
	}
}

func TestDetectorHandlesImbalancedStream(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 10, Classes: 5, Seed: 8}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	skew := stream.NewImbalanceWrapper(gen, stream.NewStaticSkew(5, 100), 3)
	d, err := NewDetector(testConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Must run without panics and keep false alarms bounded.
	drifts := runDetector(d, skew, 15000)
	batches := 15000 / d.Config().BatchSize
	if len(drifts) > batches/8 {
		t.Fatalf("imbalanced stationary stream: %d drifts over %d batches", len(drifts), batches)
	}
}

// TestTCritTable pins the memoized critical values of the trend test. For
// every window count the adaptive window can reach, the entry the hot path
// cached (or the one tcritFor fills) is StudentTQuantile bit for bit; the
// table survives Reset and LoadState, whose config checks keep it valid;
// and a warmed detector still runs UpdateBatch allocation-free.
func TestTCritTable(t *testing.T) {
	gen, err := synth.NewRBF(synth.Config{Features: 8, Classes: 3, Seed: 9}, 3, 0.07)
	if err != nil {
		t.Fatal(err)
	}
	const block = 50
	obs := make([]detectors.Observation, 4000)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	states := make([]detectors.State, block)

	cfg := testConfig(8, 3)
	det, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := det.Config()
	maxN := 4 * c.TrendWindow
	if len(det.tcrit) != maxN+1 {
		t.Fatalf("tcrit table has %d entries, want %d", len(det.tcrit), maxN+1)
	}
	effAlpha := c.Alpha / float64(c.Classes)
	want := func(n int) float64 { return stats.StudentTQuantile(1-effAlpha/2, float64(n-2)) }

	for i := 0; i < 3000; i += block {
		det.UpdateBatch(obs[i:i+block], states)
	}
	filled := 0
	for n, v := range det.tcrit {
		if v == 0 {
			continue
		}
		filled++
		if math.Float64bits(v) != math.Float64bits(want(n)) {
			t.Fatalf("hot path cached tcrit[%d] = %v, want %v", n, v, want(n))
		}
	}
	if filled == 0 {
		t.Fatal("no trend test ran; the workload never filled the table")
	}
	for n := 5; n <= maxN; n++ {
		if got := det.tcritFor(n); math.Float64bits(got) != math.Float64bits(want(n)) {
			t.Fatalf("tcritFor(%d) = %v, want %v", n, got, want(n))
		}
	}
	if got := det.tcritFor(maxN + 3); got != want(maxN+3) || len(det.tcrit) != maxN+1 {
		t.Fatalf("count beyond the table: tcritFor = %v (want %v), table len %d", got, want(maxN+3), len(det.tcrit))
	}

	table := append([]float64(nil), det.tcrit...)
	survives := func(stage string) {
		t.Helper()
		for n := range table {
			if math.Float64bits(det.tcrit[n]) != math.Float64bits(table[n]) {
				t.Fatalf("after %s: tcrit[%d] = %v, want %v", stage, n, det.tcrit[n], table[n])
			}
		}
	}
	det.Reset()
	survives("Reset")
	donor, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		donor.Update(obs[i])
	}
	var buf bytes.Buffer
	if err := donor.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	if err := det.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	survives("LoadState")

	// ADWIN grows its bucket rows by amortized appends, so the strict
	// allocation check runs the shipped default (adaptive window off). A
	// block that consults the Granger test allocates its regression
	// scratch; on this seeded stream blocks 60-66 consult none.
	cfg.AdaptiveWindow = false
	steady, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += block {
		steady.UpdateBatch(obs[i:i+block], states)
	}
	if steady.tcrit[c.TrendWindow] == 0 {
		t.Fatal("warm-up never ran the trend test at the full window")
	}
	next := 3000
	if allocs := testing.AllocsPerRun(6, func() {
		steady.UpdateBatch(obs[next:next+block], states)
		next += block
	}); allocs != 0 {
		t.Fatalf("steady-state UpdateBatch allocates %.1f per call", allocs)
	}
}
