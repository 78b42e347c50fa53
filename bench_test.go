package rbmim

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus micro-benchmarks of the core primitives.
// The table/figure benches run the same code paths as the cmd/ tools at a
// reduced scale (BENCH_SCALE below), printing the reproduced rows/series via
// b.Log when run with -v:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable3 -v          # also prints the table
//
// Full-size regeneration is the cmd/ tools' job (e.g. cmd/driftbench
// -scale 1.0); the benches exist to (a) keep every experiment executable
// under `go test -bench`, and (b) measure the cost of each experiment's
// inner loops.

import (
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/eval"
	"rbmim/internal/monitor"
	"rbmim/internal/realworld"
	"rbmim/internal/stats"
	"rbmim/internal/synth"
)

// benchScale keeps the per-iteration work of the experiment benches around a
// few seconds on a laptop.
const benchScale = 0.002

// BenchmarkTableI regenerates the benchmark-properties table (Table I): it
// measures full construction and a 2k-instance draw of every one of the 24
// streams.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bench := range eval.AllBenchmarks() {
			s, _, err := bench.Build(benchScale, 42)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 2000; j++ {
				s.Next()
			}
		}
	}
}

// BenchmarkTable3 regenerates Experiment 1 (Table III) on a stream subset:
// all six detectors over a mixed real/artificial pair of benchmarks, with
// Friedman ranks.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := eval.RunTable3(eval.Table3Config{
			Scale:        benchScale,
			Seed:         42,
			MetricWindow: 500,
			Benchmarks:   []string{"EEG", "RBF5"},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			eval.WriteTable3(logWriter{b}, out)
		}
	}
}

// BenchmarkFig4Ranks regenerates the Bonferroni-Dunn rank analysis of
// Figures 4-5 from a Table III run.
func BenchmarkFig4Ranks(b *testing.B) {
	out, err := eval.RunTable3(eval.Table3Config{
		Scale:        benchScale,
		Seed:         42,
		MetricWindow: 500,
		Benchmarks:   []string{"EEG", "RBF5", "Hyperplane5", "Aggrawal5"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores := make([][]float64, len(out.Rows))
		for r, row := range out.Rows {
			scores[r] = make([]float64, len(row.Results))
			for c, res := range row.Results {
				scores[r][c] = res.PMAUC
			}
		}
		fr := stats.Friedman(scores)
		cd := stats.BonferroniDunnCD(len(out.Detectors), len(out.Rows), 0.05)
		if i == 0 && testing.Verbose() {
			b.Logf("ranks=%v chi2=%.3f CD=%.3f", fr.AvgRanks, fr.ChiSquare, cd)
		}
	}
}

// BenchmarkFig6Bayes regenerates the Bayesian signed test of Figures 6-7
// (RBM-IM vs PerfSim under pmAUC).
func BenchmarkFig6Bayes(b *testing.B) {
	out, err := eval.RunTable3(eval.Table3Config{
		Scale:        benchScale,
		Seed:         42,
		MetricWindow: 500,
		Benchmarks:   []string{"EEG", "RBF5", "Hyperplane5", "Aggrawal5"},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eval.WriteBayesianComparison(io.Discard, out, "PerfSim", "RBM-IM", "pmauc", 1.0, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8LocalDrift regenerates one panel of Experiment 2 (Figure 8):
// the local-drift sweep on RBF10 with 1 and 10 drifted classes.
func BenchmarkFig8LocalDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := eval.RunLocalDriftSweep(eval.SweepConfig{
			Scale:        benchScale,
			Seed:         42,
			MetricWindow: 500,
			Benchmarks:   []string{"RBF10"},
			Values:       []int{1, 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			eval.WriteSweep(logWriter{b}, out, "classes")
		}
	}
}

// BenchmarkFig9Imbalance regenerates one panel of Experiment 3 (Figure 9):
// the imbalance-ratio sweep on Hyperplane10 at IR 50 and 500.
func BenchmarkFig9Imbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := eval.RunImbalanceSweep(eval.SweepConfig{
			Scale:        benchScale,
			Seed:         42,
			MetricWindow: 500,
			Benchmarks:   []string{"Hyperplane10"},
			Values:       []int{50, 500},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			eval.WriteSweep(logWriter{b}, out, "IR")
		}
	}
}

// BenchmarkDetectorUpdate measures the per-instance cost of every detector
// (the "test time" row of Table III) on a 20-feature 5-class stream.
func BenchmarkDetectorUpdate(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 3}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-draw observations so stream cost is excluded.
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	fax := eval.PaperDetectors(20)
	fax = append(fax, eval.ExtraDetectors()...)
	for _, f := range fax {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			det := f.New(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Update(obs[i%len(obs)])
			}
		})
	}
}

// BenchmarkDetectorUpdateBatch compares RBM-IM's per-instance Update loop
// against its native batched path (detectors.BatchDetector) on 256-
// observation blocks. ns/op is per block; the ns/obs metric is comparable
// across the two sub-benches. Both paths are allocation-free in steady
// state; the batched path additionally skips TrainBatch's discarded
// pre-update scoring pass and the per-observation interface dispatch.
func BenchmarkDetectorUpdateBatch(b *testing.B) {
	const block = 256
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 3}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	newDet := func() detectors.Detector {
		return eval.PaperDetectors(20)[5].New(5) // RBM-IM
	}
	perObs := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/block, "ns/obs")
	}
	b.Run("perInstance", func(b *testing.B) {
		det := newDet()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := (i * block) % len(obs)
			for j := 0; j < block; j++ {
				det.Update(obs[base+j])
			}
		}
		perObs(b)
	})
	b.Run("batch256", func(b *testing.B) {
		det := newDet()
		states := make([]detectors.State, block)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			base := (i * block) % len(obs)
			detectors.UpdateBatch(det, obs[base:base+block], states)
		}
		perObs(b)
	})
}

// BenchmarkRBMTrainBatch measures one CD-1 mini-batch update at the paper's
// default batch size for three stream widths.
func BenchmarkRBMTrainBatch(b *testing.B) {
	for _, width := range []int{20, 40, 80} {
		width := width
		b.Run(map[int]string{20: "20features", 40: "40features", 80: "80features"}[width], func(b *testing.B) {
			rbm, err := core.NewRBM(core.RBMConfig{
				Visible: width, Hidden: 2 * width, Classes: 10,
				LearningRate: 0.5, Momentum: 0.9, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			gen, err := synth.NewRBF(synth.Config{Features: width, Classes: 10, Seed: 5}, 3, 0.08)
			if err != nil {
				b.Fatal(err)
			}
			xs := make([][]float64, 50)
			ys := make([]int, 50)
			for i := range xs {
				in := gen.Next()
				xs[i] = in.X
				ys[i] = in.Y
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rbm.TrainBatch(xs, ys)
			}
		})
	}
}

// BenchmarkReconstructionError measures the per-instance scoring cost of the
// trained RBM (the detector's hot path).
func BenchmarkReconstructionError(b *testing.B) {
	rbm, err := core.NewRBM(core.RBMConfig{Visible: 40, Hidden: 80, Classes: 10, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 40)
	for i := range x {
		x[i] = float64(i) / 40
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rbm.ReconstructionError(x, i%10)
	}
}

// BenchmarkClassifier measures the base learner's predict+train cycle.
func BenchmarkClassifier(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 10, Seed: 9}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]Instance, 4096)
	for i := range ins {
		ins[i] = gen.Next()
	}
	tree := newBenchTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := ins[i%len(ins)]
		tree.Predict(in.X)
		tree.Train(in.X, in.Y)
	}
}

// BenchmarkStreamGenerators measures raw generation cost per family.
func BenchmarkStreamGenerators(b *testing.B) {
	cfg := synth.Config{Features: 40, Classes: 10, Seed: 2}
	hyp, _ := synth.NewHyperplane(cfg, 0)
	rbf, _ := synth.NewRBF(cfg, 3, 0.08)
	tree, _ := synth.NewRandomTree(cfg, 0)
	agr, _ := synth.NewAgrawal(cfg, 0)
	for _, tc := range []struct {
		name string
		s    Stream
	}{{"Hyperplane", hyp}, {"RBF", rbf}, {"RandomTree", tree}, {"Agrawal", agr}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.s.Next()
			}
		})
	}
}

// BenchmarkRealWorldSurrogates measures the composed surrogate streams
// (generator + drift orchestration + imbalance wrapper).
func BenchmarkRealWorldSurrogates(b *testing.B) {
	for _, name := range []string{"EEG", "Covertype", "IntelSensors"} {
		name := name
		b.Run(name, func(b *testing.B) {
			spec, err := realworld.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			s, n, err := spec.Build(1, 3)
			if err != nil {
				b.Fatal(err)
			}
			drawn := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if drawn == n {
					// b.N can exceed the stream's full Table I length
					// (e.g. EEG is only ~15k instances): restart it.
					b.StopTimer()
					s, n, err = spec.Build(1, 3)
					if err != nil {
						b.Fatal(err)
					}
					drawn = 0
					b.StartTimer()
				}
				s.Next()
				drawn++
			}
		})
	}
}

// BenchmarkAblationAdaptiveWindow compares RBM-IM with and without the
// ADWIN-driven self-adaptive window (the design choice called out in
// DESIGN.md) on a sudden-drift pipeline.
func BenchmarkAblationAdaptiveWindow(b *testing.B) {
	for _, adaptive := range []bool{true, false} {
		adaptive := adaptive
		name := "adaptive"
		if !adaptive {
			name = "fixed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := eval.ArtificialByName("RBF5")
				if err != nil {
					b.Fatal(err)
				}
				s, n, err := spec.Build(eval.BuildOptions{Scale: benchScale, Seed: 21})
				if err != nil {
					b.Fatal(err)
				}
				det, err := core.NewDetector(core.Config{
					Features:       s.Schema().Features,
					Classes:        s.Schema().Classes,
					AdaptiveWindow: adaptive,
					Seed:           22,
				})
				if err != nil {
					b.Fatal(err)
				}
				res := eval.RunPipeline(s, det, eval.PipelineConfig{Instances: n, MetricWindow: 500, Seed: 23})
				if i == 0 && testing.Verbose() {
					b.Logf("%s: pmAUC=%.2f TP=%d FA=%d", name, res.PMAUC, res.TruePositives, res.FalseAlarms)
				}
			}
		})
	}
}

// BenchmarkAblationSkewInsensitiveLoss compares the class-balanced loss
// (beta = 0.99) against plain unweighted CD (beta ~ 0, making every class
// weight 1) on an extremely imbalanced pipeline.
func BenchmarkAblationSkewInsensitiveLoss(b *testing.B) {
	for _, balanced := range []bool{true, false} {
		balanced := balanced
		name := "classBalanced"
		if !balanced {
			name = "unweighted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec, err := eval.ArtificialByName("RBF10")
				if err != nil {
					b.Fatal(err)
				}
				s, n, err := spec.Build(eval.BuildOptions{Scale: benchScale, Seed: 31, IROverride: 400})
				if err != nil {
					b.Fatal(err)
				}
				cfg := core.Config{
					Features:       s.Schema().Features,
					Classes:        s.Schema().Classes,
					AdaptiveWindow: true,
					Seed:           32,
				}
				if !balanced {
					cfg.Beta = 1e-9 // effective-number weights collapse to 1
				}
				det, err := core.NewDetector(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res := eval.RunPipeline(s, det, eval.PipelineConfig{Instances: n, MetricWindow: 500, Seed: 33})
				if i == 0 && testing.Verbose() {
					b.Logf("%s: pmAUC=%.2f pmGM=%.2f", name, res.PMAUC, res.PMGM)
				}
			}
		})
	}
}

// BenchmarkMonitorIngest measures multi-stream throughput of the sharded
// Monitor at increasing shard counts: 64 independent streams fed from
// GOMAXPROCS producers via RunParallel. Throughput (ns/op = ns/observation)
// should improve with shards until the producer count or memory bandwidth
// saturates; cmd/monitorbench runs the same sweep at full scale with
// per-shard balance reporting.
func BenchmarkMonitorIngest(b *testing.B) {
	const (
		streams  = 64
		features = 20
		classes  = 5
	)
	gen, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
			m, err := monitor.New(monitor.Config{
				Detector:  core.Config{Features: features, Classes: classes, Seed: 7},
				Shards:    shards,
				QueueSize: 4096,
			})
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(next.Add(1))
				for pb.Next() {
					i++
					k := i % len(obs)
					if err := m.IngestBatch(ids[i%streams], obs[k:k+1]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			m.Close()
		})
	}
}

// BenchmarkMonitorIngestSingleStream measures the per-observation overhead
// the Monitor adds over a bare detector (hashing, copy, channel hop) in the
// degenerate single-stream single-shard case.
func BenchmarkMonitorIngestSingleStream(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	m, err := monitor.New(monitor.Config{
		Detector:  core.Config{Features: 20, Classes: 5, Seed: 7},
		Shards:    1,
		QueueSize: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(obs)
		if err := m.IngestBatch("only", obs[k:k+1]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m.Close()
}

// benchCountDetector is a near-free detector isolating the monitor's own
// ingestion path (hash, lock, slab copy, queue hop, shard dispatch) from
// detector cost.
type benchCountDetector struct{ n uint64 }

func (d *benchCountDetector) Update(detectors.Observation) detectors.State {
	d.n++
	return detectors.None
}
func (d *benchCountDetector) Reset()       {}
func (d *benchCountDetector) Name() string { return "count" }

// BenchmarkMonitorIngestBatch compares per-instance ingest (blocks of one)
// against IngestBatch at block 256 across 64 streams. ns/op is per 256-observation
// block; the ns/obs metric is comparable across sub-benches. The "overhead"
// variants host a near-free detector, isolating the monitor path that
// batching amortizes (one queue hop, one pooled slab, and one shard
// dispatch per block instead of 256); the "RBM-IM" variants show the same
// comparison under a real detector load. Steady state is 0 allocs/op (run
// with -benchmem; the first iterations warm the pools).
func BenchmarkMonitorIngestBatch(b *testing.B) {
	const (
		streams  = 64
		features = 20
		classes  = 5
		block    = 256
	)
	gen, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	ids := make([]string, streams)
	for i := range ids {
		ids[i] = fmt.Sprintf("stream-%02d", i)
	}
	newConfig := func(name string, queue int) monitor.Config {
		if name == "overhead" {
			return monitor.Config{
				NewDetector: func(string) (detectors.Detector, error) { return &benchCountDetector{}, nil },
				Shards:      4,
				QueueSize:   queue,
			}
		}
		cfg := monitor.Config{
			Detector:  core.Config{Features: features, Classes: classes, Seed: 7},
			Shards:    4,
			QueueSize: queue,
		}
		// The tele-off variant isolates the stage-histogram cost (queue-wait
		// stamps + detector timing) for the overhead table in EXPERIMENTS.md;
		// the default variants run at full telemetry, the production level.
		if name == "RBM-IM-tele-off" {
			cfg.Telemetry = TelemetryOff
		}
		return cfg
	}
	perObs := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/block, "ns/obs")
	}
	for _, name := range []string{"overhead", "RBM-IM", "RBM-IM-tele-off"} {
		name := name
		// Both modes bound the same number of in-flight observations (4096),
		// so backpressure engages identically and the pooled slabs actually
		// recycle; the timed region includes the Close drain, making ns/obs
		// a true end-to-end throughput figure rather than producer-side cost.
		b.Run(name+"/perInstance", func(b *testing.B) {
			m, err := monitor.New(newConfig(name, 4096))
			if err != nil {
				b.Fatal(err)
			}
			// Warm pools and detectors before measuring steady state.
			for s := 0; s < streams; s++ {
				for j := 0; j < block; j++ {
					if err := m.IngestBatch(ids[s], obs[j:j+1]); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%streams]
				base := (i * block) % len(obs)
				for j := 0; j < block; j++ {
					if err := m.IngestBatch(id, obs[base+j:base+j+1]); err != nil {
						b.Fatal(err)
					}
				}
			}
			m.Close()
			b.StopTimer()
			perObs(b)
		})
		b.Run(name+"/batch256", func(b *testing.B) {
			m, err := monitor.New(newConfig(name, 4096/block))
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < streams; s++ {
				if err := m.IngestBatch(ids[s], obs[:block]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := (i * block) % len(obs)
				if err := m.IngestBatch(ids[i%streams], obs[base:base+block]); err != nil {
					b.Fatal(err)
				}
			}
			m.Close()
			b.StopTimer()
			perObs(b)
		})
	}
}

// logWriter adapts b.Log to io.Writer for the report helpers.
type logWriter struct{ b *testing.B }

func (w logWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// newBenchTree builds the base classifier via the internal package (the
// façade intentionally does not re-export the classifier).
func newBenchTree() interface {
	Predict([]float64) (int, []float64)
	Train([]float64, int)
} {
	return benchTreeFactory()
}

// BenchmarkMonitorCheckpoint measures what state persistence costs the
// ingest path: the single-stream single-shard blocks-of-one loop (the monitor's
// per-observation floor) with checkpointing off, against an in-memory store
// snapshotting every 100 ms and a filesystem store at the same cadence.
// Snapshots are serialized on the shard goroutine into pooled buffers and
// written by the async writer, so ns/obs should be statistically unchanged
// and steady state stays 0 allocs/op (run with -benchmem). The ns/obs
// metric feeds scripts/benchguard against BENCH_checkpoint.json in CI.
func BenchmarkMonitorCheckpoint(b *testing.B) {
	gen, err := synth.NewRBF(synth.Config{Features: 20, Classes: 5, Seed: 17}, 3, 0.08)
	if err != nil {
		b.Fatal(err)
	}
	obs := make([]detectors.Observation, 4096)
	for i := range obs {
		in := gen.Next()
		obs[i] = detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}
	}
	modes := []struct {
		name  string
		store func(b *testing.B) monitor.Store
	}{
		{"off", func(*testing.B) monitor.Store { return nil }},
		{"mem", func(*testing.B) monitor.Store { return monitor.NewMemStore() }},
		{"fs", func(b *testing.B) monitor.Store {
			store, err := monitor.NewFSStore(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return store
		}},
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			m, err := monitor.New(monitor.Config{
				Detector:   core.Config{Features: 20, Classes: 5, Seed: 7},
				Shards:     1,
				QueueSize:  4096,
				Checkpoint: monitor.CheckpointConfig{Store: mode.store(b), Interval: 100 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			// Warm the detector, pools, and checkpoint scratch.
			for i := 0; i < 512; i++ {
				if err := m.IngestBatch("only", obs[i:i+1]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(obs)
				if err := m.IngestBatch("only", obs[k:k+1]); err != nil {
					b.Fatal(err)
				}
			}
			m.Close() // the drain is part of the measured throughput
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/obs")
			if sn := m.Snapshot(); sn.CheckpointErrors != 0 {
				b.Fatalf("checkpoint errors during bench: %d", sn.CheckpointErrors)
			}
		})
	}
}

// BenchmarkDetectorSaveState measures one full RBM-IM snapshot: the
// serialization runs on the shard goroutine in production, so this is the
// per-stream pause a checkpoint tick injects between micro-batches. The
// snapshot_bytes metric records the per-stream footprint a Store holds.
func BenchmarkDetectorSaveState(b *testing.B) {
	for _, features := range []int{20, 80} {
		features := features
		b.Run(fmt.Sprintf("%dfeatures", features), func(b *testing.B) {
			det, err := core.NewDetector(core.Config{Features: features, Classes: 5, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			gen, err := synth.NewRBF(synth.Config{Features: features, Classes: 5, Seed: 3}, 3, 0.08)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				in := gen.Next()
				det.Update(detectors.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y})
			}
			var frame []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if frame, err = det.AppendState(frame[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(frame)), "snapshot_bytes")
		})
	}
}
