// Command driftbench orchestrates the full reproduction: Table I
// properties, the Table III detector comparison with Friedman /
// Bonferroni-Dunn rank analysis (Figures 4-5), the Bayesian signed tests
// (Figures 6-7), the local-drift sweep (Figure 8), and the imbalance-ratio
// robustness sweep (Figure 9). Each experiment honours the shared -scale
// and -seed flags; individual experiments can be selected with -run, a
// comma-separated list.
//
// Usage:
//
//	driftbench [-run all|table3|ranks|bayes|fig8|fig9|resume] [-scale 0.02]
//	           [-seed 42] [-block 1] [-benchmarks EEG,RBF5] [-extras]
//	           [-values 1,3,5] [-cpuprofile cpu.out] [-memprofile mem.out]
//	           [-checkpoint ck.bin] [-resume ck.bin]
//
// -benchmarks restricts every experiment to the named streams (the fig8 and
// fig9 sweeps keep only the artificial ones). -extras adds the DDM, EDDM,
// ADWIN and HDDM-A baselines to Table III. -values overrides the swept
// values of fig8 (class counts) or fig9 (imbalance ratios); it is refused
// when both sweeps are selected, because the values mean different things.
//
// A full run at -scale 0.02 finishes in a few minutes on a laptop; use
// -scale 1.0 for the paper's full stream lengths. The -cpuprofile and
// -memprofile flags write pprof profiles of the selected experiments so
// performance PRs can ship before/after evidence (see EXPERIMENTS.md,
// "Profiling the reproduction").
//
// -run resume demonstrates kill-and-resume mid-stream on a drifting
// benchmark stream. Three invocations tell the whole story:
//
//	driftbench -run resume                       # uninterrupted reference
//	driftbench -run resume -checkpoint ck.bin    # train half, save, "die"
//	driftbench -run resume -resume ck.bin        # load, finish the stream
//
// The resumed invocation reports the same drift decisions and the same
// final RBM weight checksum as the uninterrupted reference — the detector
// state round-trips bit for bit (the checkpoint is taken mid-mini-batch on
// purpose).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rbmim"
	"rbmim/internal/eval"
)

func main() {
	run := flag.String("run", "all", "comma-separated experiments: all, table3, ranks, bayes, fig8, fig9, resume")
	scale := flag.Float64("scale", 0.02, "fraction of each benchmark's full length (1.0 = Table I size)")
	seed := flag.Int64("seed", 42, "random seed")
	window := flag.Int("window", 1000, "prequential metric window")
	parallel := flag.Int("parallel", 0, "worker goroutines (default: NumCPU)")
	rope := flag.Float64("rope", 1.0, "Bayesian signed test rope (metric points)")
	blockSize := flag.Int("block", 1, "prequential block length fed to every pipeline (1 = classic per-instance loop)")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset for every experiment (default: all)")
	extras := flag.Bool("extras", false, "table3: include the DDM/EDDM/ADWIN/HDDM-A extra baselines")
	values := flag.String("values", "", "fig8 or fig9: comma-separated swept values (class counts or imbalance ratios)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	checkpoint := flag.String("checkpoint", "", "with -run resume: save the detector mid-stream to this file and stop")
	resume := flag.String("resume", "", "with -run resume: load the detector from this file and run the second half")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "driftbench:", err)
				return
			}
			fmt.Printf("wrote CPU profile to %s\n", *cpuprofile)
		}
		defer flushProfiles()
	}
	if *memprofile != "" {
		writeHeapProfile = func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "driftbench:", err)
				return
			}
			runtime.GC() // materialize the steady-state live set
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "driftbench:", err)
				return
			}
			fmt.Printf("wrote heap profile to %s\n", *memprofile)
		}
		defer flushProfiles()
	}

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	all := want["all"]
	started := time.Now()
	var benchList []string
	if *benchmarks != "" {
		benchList = strings.Split(*benchmarks, ",")
	}
	var sweepValues []int
	if *values != "" {
		if all || (want["fig8"] && want["fig9"]) {
			fail(fmt.Errorf("-values applies to one of fig8 (class counts) or fig9 (imbalance ratios), not both"))
		}
		for _, v := range strings.Split(*values, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				fail(fmt.Errorf("bad -values entry %q", v))
			}
			sweepValues = append(sweepValues, n)
		}
	}

	if want["resume"] {
		if err := runResumeDemo(*seed, *checkpoint, *resume); err != nil {
			fail(err)
		}
		if !all && len(want) == 1 {
			fmt.Printf("done in %s\n", time.Since(started).Round(time.Millisecond))
			return
		}
	}

	var table3 *eval.Table3Output
	needTable3 := all || want["table3"] || want["ranks"] || want["bayes"]
	if needTable3 {
		fmt.Printf("== Experiment 1 (Table III), scale=%.3f ==\n", *scale)
		out, err := eval.RunTable3(eval.Table3Config{
			Scale:         *scale,
			Seed:          *seed,
			MetricWindow:  *window,
			Parallelism:   *parallel,
			BlockSize:     *blockSize,
			Benchmarks:    benchList,
			IncludeExtras: *extras,
		})
		if err != nil {
			fail(err)
		}
		table3 = out
		eval.WriteTable3(os.Stdout, out)
		fmt.Println()
	}
	if all || want["ranks"] {
		fmt.Println("== Figures 4-5: Bonferroni-Dunn rank analysis ==")
		eval.WriteRankAnalysis(os.Stdout, table3, "pmauc")
		fmt.Println()
		eval.WriteRankAnalysis(os.Stdout, table3, "pmgm")
		fmt.Println()
	}
	if all || want["bayes"] {
		fmt.Println("== Figures 6-7: Bayesian signed tests ==")
		for _, metric := range []string{"pmauc", "pmgm"} {
			for _, baseline := range []string{"PerfSim", "DDM-OCI"} {
				if err := eval.WriteBayesianComparison(os.Stdout, table3, baseline, "RBM-IM", metric, *rope, *seed); err != nil {
					fail(err)
				}
				fmt.Println()
			}
		}
	}
	sweep := eval.SweepConfig{
		Scale:        *scale,
		Seed:         *seed,
		MetricWindow: *window,
		Parallelism:  *parallel,
		BlockSize:    *blockSize,
		Benchmarks:   benchList,
		Values:       sweepValues,
	}
	if all || want["fig8"] {
		fmt.Printf("== Experiment 2 (Figure 8): local drift sweep, scale=%.3f ==\n", *scale)
		out, err := eval.RunLocalDriftSweep(sweep)
		if err != nil {
			fail(err)
		}
		eval.WriteSweep(os.Stdout, out, "classes")
		fmt.Println()
	}
	if all || want["fig9"] {
		fmt.Printf("== Experiment 3 (Figure 9): imbalance-ratio sweep, scale=%.3f ==\n", *scale)
		out, err := eval.RunImbalanceSweep(sweep)
		if err != nil {
			fail(err)
		}
		eval.WriteSweep(os.Stdout, out, "IR")
		fmt.Println()
	}
	fmt.Printf("done in %s\n", time.Since(started).Round(time.Second))
}

// resumeDemo parameters: a drifting stream long enough for several
// mini-batches on each side of the cut, with the cut deliberately mid-batch
// so the partial mini-batch rides through the checkpoint.
const (
	resumeTotal = 20000
	resumeCut   = 10177
)

// resumeStream rebuilds the demo stream deterministically: two RBF concepts
// with a sudden switch shortly after the cut, so the interesting detection
// work happens in the resumed half.
func resumeStream(seed int64) (rbmim.Stream, error) {
	cfg := rbmim.GeneratorConfig{Features: 12, Classes: 5, Seed: seed + 1}
	before, err := rbmim.NewRBF(cfg, 3, 0.08)
	if err != nil {
		return nil, err
	}
	afterCfg := cfg
	afterCfg.Seed = seed + 2
	after, err := rbmim.NewRBF(afterCfg, 3, 0.08)
	if err != nil {
		return nil, err
	}
	return rbmim.NewDriftStream(before, after, rbmim.SuddenDrift, resumeTotal*3/5, 0, seed+3), nil
}

// runResumeDemo is the -run resume experiment (kill-and-resume mid-stream);
// see the package comment for the three-invocation walkthrough.
func runResumeDemo(seed int64, checkpointPath, resumePath string) error {
	fmt.Println("== Kill-and-resume demo (checkpointable detector state) ==")
	s, err := resumeStream(seed)
	if err != nil {
		return err
	}
	det, err := rbmim.NewDetector(rbmim.DetectorConfig{Features: 12, Classes: 5, Seed: seed})
	if err != nil {
		return err
	}
	feed := func(from, to int, drifts int) int {
		for i := from; i < to; i++ {
			in := s.Next()
			if det.Update(rbmim.Observation{X: in.X, TrueClass: in.Y, Predicted: in.Y}) == rbmim.Drift {
				drifts++
			}
		}
		return drifts
	}

	start, drifts := 0, 0
	if resumePath != "" {
		data, err := os.ReadFile(resumePath)
		if err != nil {
			return err
		}
		if err := rbmim.LoadDetector(det, bytes.NewReader(data)); err != nil {
			return err
		}
		// Position the stream at the cut: the generator is seeded, so
		// replaying (and discarding) the consumed prefix reproduces it.
		for i := 0; i < resumeCut; i++ {
			s.Next()
		}
		start = resumeCut
		fmt.Printf("resumed from %s (%d bytes) at observation %d\n", resumePath, len(data), resumeCut)
	}

	if checkpointPath != "" && resumePath == "" {
		drifts = feed(0, resumeCut, drifts)
		f, err := os.Create(checkpointPath)
		if err != nil {
			return err
		}
		err = rbmim.SaveDetector(det, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		info, _ := os.Stat(checkpointPath)
		fmt.Printf("trained %d/%d observations, saved checkpoint to %s (%d bytes); rerun with -resume %s\n",
			resumeCut, resumeTotal, checkpointPath, info.Size(), checkpointPath)
		return nil
	}

	if start == 0 {
		// Uninterrupted reference: run the prefix too, but report the
		// post-cut half separately so the number is directly comparable to a
		// resumed invocation.
		drifts = feed(0, resumeCut, drifts)
	}
	post := feed(resumeCut, resumeTotal, 0)
	fmt.Printf("finished at observation %d: drifts after the cut %d (total %d), final weight checksum %#016x\n",
		resumeTotal, post, drifts+post, det.RBM().WeightChecksum())
	if resumePath != "" {
		fmt.Println("compare against `driftbench -run resume` (uninterrupted): post-cut drifts and checksum match bit for bit")
	}
	return nil
}

// stopCPUProfile / writeHeapProfile are installed by main when the
// corresponding flags are set; flushProfiles runs each at most once, both
// on the normal defer path and from fail — os.Exit skips defers, and a
// truncated CPU profile of a failed run is exactly the artifact one wants
// most.
var stopCPUProfile, writeHeapProfile func()

func flushProfiles() {
	if stopCPUProfile != nil {
		stopCPUProfile()
		stopCPUProfile = nil
	}
	if writeHeapProfile != nil {
		writeHeapProfile()
		writeHeapProfile = nil
	}
}

func fail(err error) {
	flushProfiles()
	fmt.Fprintln(os.Stderr, "driftbench:", err)
	os.Exit(1)
}
