package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/stream"
)

const (
	// setupRepeats is how many times a run builds its system; setup_s is
	// the median.
	setupRepeats = 5
	// referenceSample is how many RBM-IM streams the correctness gate
	// replays through a direct reference detector.
	referenceSample = 8
	// embeddedLimit is the embedded workload's latency limit for one
	// 256-observation UpdateBatch call.
	embeddedLimit = 5 * time.Millisecond
)

// warmDetectors builds one RBM-IM detector per stream and feeds each its
// warm-up blocks, so timing starts past WarmupBatches.
func warmDetectors(streams []*rbmStream) ([]*core.Detector, error) {
	dets := make([]*core.Detector, len(streams))
	states := make([]detectors.State, blockSize)
	for i, s := range streams {
		det, err := core.NewDetector(core.Config{Features: features, Classes: classes, Seed: detectorSeedFor(s.id)})
		if err != nil {
			return nil, err
		}
		for b := 0; b < warmupBlocks; b++ {
			det.UpdateBatch(s.block(b*blockSize), states)
		}
		dets[i] = det
	}
	return dets, nil
}

// embeddedPhase is one timed closed-loop phase over the detectors.
type embeddedPhase struct {
	obs    int64
	blocks int64
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	acks   []float64 // µs per UpdateBatch call
	events []driftEvent
	marks  [][]dueMark
}

// runEmbeddedPhase round-robins blocks over the streams for d, continuing
// every stream from pos. With tr non-nil each call is traced.
func runEmbeddedPhase(streams []*rbmStream, dets []*core.Detector, pos []int, d time.Duration, clock time.Time, group *int64, tr *tracer) *embeddedPhase {
	ph := &embeddedPhase{
		acks:   make([]float64, 0, 1<<16),
		events: make([]driftEvent, 0, 1<<12),
		marks:  make([][]dueMark, len(streams)),
	}
	// Preallocated so the loop's own bookkeeping does not count in
	// core.allocs_per_kobs.
	for s := range ph.marks {
		ph.marks[s] = make([]dueMark, 0, 1<<10)
	}
	log := tr.log()
	states := make([]detectors.State, blockSize)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocs0 := ms.Mallocs
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(d)
	next := 0
	for {
		t0 := time.Now()
		if t0.After(deadline) {
			break
		}
		s := next % len(streams)
		next++
		blk := streams[s].block(pos[s])
		det := dets[s]
		c0 := time.Now()
		det.UpdateBatch(blk, states)
		c1 := time.Now()
		*group++
		due := int64(c0.Sub(clock))
		ph.marks[s] = append(ph.marks[s], dueMark{FirstSeq: pos[s] + 1, Due: due})
		for i, st := range states {
			if st == detectors.Drift {
				ph.events = append(ph.events, driftEvent{
					Stream: s, Seq: pos[s] + i + 1, Classes: sortedInts(det.DriftClasses()),
					Group: *group, Arrive: int64(c1.Sub(clock)),
				})
			}
		}
		ph.acks = append(ph.acks, float64(c1.Sub(c0))/1e3)
		if log != nil {
			id := requestID(s, pos[s]+1)
			t1 := time.Now()
			log.add(span{Layer: layerCore, Parent: layerBench, ID: id, Start: tr.at(c0), End: tr.at(c1)})
			log.add(span{Layer: layerBench, ID: id, Start: tr.at(t0), End: tr.at(t1)})
		}
		pos[s] += blockSize
		ph.blocks++
	}
	ph.wall = time.Since(start)
	ph.cpu = selfCPU() - cpu0
	runtime.ReadMemStats(&ms)
	ph.allocs = ms.Mallocs - allocs0
	ph.obs = ph.blocks * blockSize
	return ph
}

func runEmbedded(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	streams, err := buildRBMStreams(rc.seed)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var dets []*core.Detector
	for i := 0; i < setupRepeats; i++ {
		dets = nil
		// Collect the previous set-up's detectors first, so the next
		// set-up's time does not depend on when the GC ran.
		runtime.GC()
		t0 := time.Now()
		dets, err = warmDetectors(streams)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	pos := make([]int, len(streams))
	for i := range pos {
		pos[i] = warmupBlocks * blockSize
	}
	from := warmupBlocks * blockSize
	checkWarmup(o)

	clock := time.Now()
	var group int64
	total := time.Duration(rc.seconds * float64(time.Second))
	var tr *tracer
	var plain, ph *embeddedPhase
	if rc.trace {
		// Untraced half, then traced half: their difference is the
		// tracing overhead.
		plain = runEmbeddedPhase(streams, dets, pos, total/2, clock, &group, nil)
		tr = newTracer(clock)
		ph = runEmbeddedPhase(streams, dets, pos, total/2, clock, &group, tr)
	} else {
		ph = runEmbeddedPhase(streams, dets, pos, total, clock, &group, nil)
	}
	all := ph
	if plain != nil {
		all = mergeEmbedded(plain, ph, len(streams))
	}
	o.attempted = all.blocks

	// Correctness: a seed-derived sample of streams against the direct
	// reference detector.
	evs := byStream(all.events, len(streams))
	for _, s := range sampleStreams(rc.seed, len(streams), referenceSample) {
		want, err := referenceRBM(streams[s], pos[s])
		if err != nil {
			return nil, err
		}
		if err := compareEvents(evs[s], want); err != nil {
			o.fail("stream %s: %v", streams[s].id, err)
		}
	}
	score := scoreRBM(streams, evs, from, pos)
	if score.Evaluable == 0 {
		o.fail("no injected drift lies inside the timed run")
	}

	m := o.metrics
	m["obs_per_s"] = float64(ph.obs) / ph.wall.Seconds()
	m["cpu_us_per_obs"] = ph.cpu.Seconds() * 1e6 / float64(ph.obs)
	// The host switches between two CPU speeds at sub-second scale, so
	// the call times have two modes and a whole-run median lands on one or
	// the other (ten-run spread 0.27-0.34, where obs_per_s spreads 0.13).
	// The p50s are therefore the median of each round-robin round (one
	// call per stream), averaged over the run, which weighs the modes by
	// time as obs_per_s does.
	ackRound := make([]int64, len(ph.acks))
	for i := range ackRound {
		ackRound[i] = int64(i / len(streams))
	}
	var evRound []int64
	var latMS []float64
	for _, e := range all.events {
		if due, ok := dueFor(all.marks[e.Stream], e.Seq); ok {
			evRound = append(evRound, (e.Group-1)/int64(len(streams)))
			latMS = append(latMS, float64(e.Arrive-due)/1e6)
		}
	}
	m["ack_p50_us"] = meanOfGroupMedians(ackRound, ph.acks)
	m["event_p50_ms"] = meanOfGroupMedians(evRound, latMS)
	acks := summarize(append([]float64(nil), ph.acks...))
	lat := summarize(latMS)
	m["bench.ack_p95_us"], m["bench.event_p95_ms"] = acks.P95, lat.P95
	m["slo_met_frac"] = fracWithin(ph.acks, float64(embeddedLimit.Microseconds()))
	setScore(m, score, all.obs)
	m["ok_frac"] = 1
	m["setup_s"] = median(setups)
	o.logf("embedded: %d streams, %d blocks (%d obs) in %.2fs; %d events; %v; setups %v",
		len(streams), all.blocks, all.obs, all.wall.Seconds(), len(all.events), score, fmtSecs(setups))
	o.logf("ack (UpdateBatch call) %s; event latency %s", fmtSummary(acks, "us"), fmtSummary(lat, "ms"))
	o.logf("p50 as the mean of round-robin round medians: ack %.1fus, event %.3fms", m["ack_p50_us"], m["event_p50_ms"])

	if rc.trace {
		tracedEmbedded(o, rc, streams, dets, pos, plain, ph, tr)
	}
	// The detectors share this process with the input pool, which is
	// many times their size, so the process's VmHWM would measure the
	// load generator. rss_peak_mb is instead the heap the detectors hold
	// at the end of the run: the live heap with them minus without them.
	with := liveHeapMB()
	runtime.KeepAlive(dets)
	m["rss_peak_mb"] = with - liveHeapMB()
	return o, nil
}

// liveHeapMB returns the live heap in MB after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tracedEmbedded fills the per-layer metrics and the layer budget.
func tracedEmbedded(o *outcome, rc runConfig, streams []*rbmStream, dets []*core.Detector, pos []int, plain, ph *embeddedPhase, tr *tracer) {
	m := o.metrics
	tr.addEvents(ph.events, func(e driftEvent) (int64, bool) { return dueFor(ph.marks[e.Stream], e.Seq) }, 0)
	spans := tr.all()
	lt := selfTimes(spans)
	obs := float64(ph.obs)
	upd := float64(lt[layerCore].Total) / obs
	m["core.update_ns_per_obs"] = upd
	acks := summarize(append([]float64(nil), ph.acks...))
	m["core.update_block_p50_us"], m["core.update_block_p99_us"] = acks.P50, acks.P99
	// Allocations come from the untraced half: span logging allocates.
	m["core.allocs_per_kobs"] = float64(plain.allocs) * 1000 / float64(plain.obs)
	train, score := replayKernels(rc.seed, streams, dets, pos, tr)
	m["core.rbm_train_ns_per_obs"], m["core.rbm_score_ns_per_obs"] = train, score
	m["core.detect_self_ns_per_obs"] = upd - train - score
	reportOverhead(o, figures(plain.obs, plain.wall, plain.cpu, plain.acks), figures(ph.obs, ph.wall, ph.cpu, ph.acks), false)
	o.logf("core split (ns/obs): update %.0f = rbm train %.0f + rbm score %.0f + detector self %.0f", upd, train, score, upd-train-score)
	reportBudget(o, map[string]budgetRow{
		layerBench: {float64(lt[layerBench].Total) / obs / 1e3, float64(lt[layerBench].Self) / obs / 1e3, "spans"},
		layerCore:  {upd / 1e3, upd / 1e3, "spans"},
	})
	saveSpans(o, rc, spans)
}

// replayKernels replays mini-batches of the run through the RBM kernels on
// a clone of each sampled stream's warmed RBM, returning train and score
// ns per observation. Inputs are scaled like the detector scales them.
func replayKernels(seed int64, streams []*rbmStream, dets []*core.Detector, pos []int, tr *tracer) (train, score float64) {
	log := tr.log()
	var trainNS, scoreNS int64
	var n int
	for _, s := range sampleStreams(seed, len(streams), referenceSample) {
		frame, err := dets[s].AppendState(nil)
		if err != nil {
			continue
		}
		clone, err := core.NewDetector(dets[s].Config())
		if err != nil || clone.LoadStateBytes(frame) != nil {
			continue
		}
		rbm := clone.RBM()
		scaler := stream.NewScaler(stream.Schema{Features: features, Classes: classes})
		mb := clone.Config().BatchSize
		xs := make([][]float64, mb)
		for i := range xs {
			xs[i] = make([]float64, features)
		}
		ys := make([]int, mb)
		errs := make([]float64, mb)
		start := warmupBlocks * blockSize
		for p := start; p+mb <= pos[s]; p += mb {
			for i := 0; i < mb; i++ {
				o := streams[s].block((p + i) - (p+i)%blockSize)[(p+i)%blockSize]
				scaler.Observe(o.X)
				scaler.Scale(o.X, xs[i])
				ys[i] = o.TrueClass
			}
			id := requestID(s, p+1)
			t0 := tr.now()
			rbm.TrainBatchUnscored(xs, ys)
			t1 := tr.now()
			rbm.ScoreBatch(xs, ys, errs)
			t2 := tr.now()
			log.add(span{Layer: layerKernel, Parent: layerCore, ID: id, Start: t0, End: t1})
			log.add(span{Layer: layerKernel, Parent: layerCore, ID: id, Start: t1, End: t2})
			trainNS += t1 - t0
			scoreNS += t2 - t1
			n += mb
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(trainNS) / float64(n), float64(scoreNS) / float64(n)
}

func mergeEmbedded(a, b *embeddedPhase, streams int) *embeddedPhase {
	out := &embeddedPhase{
		obs: a.obs + b.obs, blocks: a.blocks + b.blocks, wall: a.wall + b.wall,
		events: append(append([]driftEvent(nil), a.events...), b.events...),
		marks:  make([][]dueMark, streams),
	}
	for s := range out.marks {
		out.marks[s] = append(append([]dueMark(nil), a.marks[s]...), b.marks[s]...)
	}
	return out
}

// checkWarmup enforces steady state: the warm-up blocks every RBM-IM
// stream receives before timing cover the detector's WarmupBatches ×
// BatchSize under the configuration the monitor and driftserver ship.
func checkWarmup(o *outcome) {
	probe, err := core.NewDetector(core.Config{Features: features, Classes: classes, Seed: detectorSeed})
	if err != nil {
		o.fail("warm-up probe: %v", err)
		return
	}
	cfg := probe.Config()
	if need := cfg.WarmupBatches * cfg.BatchSize; warmupBlocks*blockSize < need {
		o.fail("detectors see %d observations before timing, warm-up needs %d", warmupBlocks*blockSize, need)
	}
}

// scoreRBM scores every stream's events against its injected drifts over
// the timed positions [from, pos[s]).
func scoreRBM(streams []*rbmStream, evs [][]driftEvent, from int, pos []int) driftScore {
	var total driftScore
	for s, st := range streams {
		total.add(scoreStream(eventSeqs(evs[s]), st.drifts(pos[s]), from, pos[s], rbmWindow))
	}
	return total
}

// setScore stores drift_recall and false_alarms_per_mobs.
func setScore(m map[string]float64, sc driftScore, obs int64) {
	if sc.Evaluable > 0 {
		m["drift_recall"] = float64(sc.Detected) / float64(sc.Evaluable)
	}
	m["false_alarms_per_mobs"] = float64(sc.FalseAlarms) * 1e6 / float64(obs)
}

// eventLatencies attributes every event to the due time of the block
// holding its Seq and returns arrival minus due in ms.
func eventLatencies(evs []driftEvent, marks [][]dueMark) []float64 {
	var lat []float64
	for _, e := range evs {
		if due, ok := dueFor(marks[e.Stream], e.Seq); ok {
			lat = append(lat, float64(e.Arrive-due)/1e6)
		}
	}
	return lat
}

// sampleStreams picks k distinct stream indices from the seed.
func sampleStreams(seed int64, n, k int) []int {
	perm := rand.New(rand.NewSource(subSeed(seed, 999))).Perm(n)
	if k > n {
		k = n
	}
	return perm[:k]
}

// fracWithin returns the share of xs at or below limit.
func fracWithin(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// selfCPU returns the benchmark process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func fmtSecs(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3fs", x)
	}
	return "[" + s + "]"
}

func fmtSummary(s summary, unit string) string {
	return fmt.Sprintf("n=%d p50=%.3f%s p90=%.3f%s p95=%.3f%s p99=%.3f%s p%g=%.3f%s max=%.3f%s",
		s.N, s.P50, unit, s.P90, unit, s.P95, unit, s.P99, unit, 100*s.Tail, s.TailV, unit, s.Max, unit)
}
