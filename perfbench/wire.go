package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rbmim/internal/monitor"
	"rbmim/internal/server"
	"rbmim/internal/telemetry"
)

const (
	// wireWindow is the pipelined client's fixed in-flight window.
	wireWindow = 32
	// wireLimit is wire-single's latency limit for one ingest ack.
	wireLimit = 2 * time.Millisecond
	// wireSetups: the wire-single set-up is short, so more repeats keep
	// its median steady.
	wireSetups = 9
	// wireTraceEvery samples the traced requests: one in this many keeps
	// the in-memory span log small at over a million requests a run.
	wireTraceEvery = 16
)

// wireSystem is one running wire-single system under test.
type wireSystem struct {
	srv *child
	c   *server.Client
	sub *server.Subscription
	col *collector
}

func (w *wireSystem) close() {
	if w.sub != nil {
		w.sub.Close()
	}
	if w.c != nil {
		w.c.Close()
	}
	w.srv.stop()
	if w.col != nil {
		w.col.wg.Wait()
	}
}

// startWire starts the DDM-OCI server, connects, subscribes and creates
// every stream with its first observation, ending on a barrier.
func startWire(rc runConfig, in *ddmInputs, clock time.Time) (*wireSystem, error) {
	srv, err := startChild(filepath.Join(binDir, "ddmserver"), "-addr", "127.0.0.1:0", "-classes", fmt.Sprint(classes))
	if err != nil {
		return nil, err
	}
	w := &wireSystem{srv: srv}
	if w.c, err = server.DialWindow(srv.addr, wireWindow); err != nil {
		w.close()
		return nil, err
	}
	if w.sub, err = w.c.Subscribe(1 << 14); err != nil {
		w.close()
		return nil, err
	}
	w.col = newCollector(in.ids, clock)
	w.col.follow(w.sub)
	pend := make([]server.Pending, len(in.ids))
	for s, id := range in.ids {
		if pend[s], err = w.c.IngestAsync(id, in.obs(s, 0)); err != nil {
			w.close()
			return nil, err
		}
	}
	for _, p := range pend {
		if err := p.Wait(); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := w.c.FlushCheckpoints(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// wireReq is one in-flight single-observation ingest.
type wireReq struct {
	p       server.Pending
	s, seq  int
	issueAt int64 // IngestAsync call start, run clock
	traced  bool
}

// wirePhase is one timed closed-loop phase.
type wirePhase struct {
	obs, failed   int64
	wall          time.Duration // first issue to barrier return
	cpu           time.Duration // server CPU over wall
	acks          []float64     // µs, IngestAsync start to Wait return
	callNS        int64         // time inside IngestAsync (traced phase only)
	start         int64         // run clock
	genWall       time.Duration
	benchCPU      time.Duration // benchmark-process CPU over wall
	barrier       time.Duration
	pre, preFlush monitor.Snapshot
	post          monitor.Snapshot
	rttPre        []telemetry.Stage
}

// runWirePhase runs the closed loop for d, continuing every stream from
// pos; issue[s] collects each observation's issue time. With tr non-nil
// every request is traced.
func runWirePhase(w *wireSystem, in *ddmInputs, pos []int, issue [][]int64, d time.Duration, clock time.Time, tr *tracer) (*wirePhase, error) {
	ph := &wirePhase{acks: make([]float64, 0, 1<<20)}
	var err error
	if ph.pre, err = w.c.Snapshot(); err != nil {
		return nil, err
	}
	ph.rttPre = w.c.Latency()
	// Deeper than the in-flight window, so handing an ack to the waiter
	// never stalls the loop while the window has room.
	reqs := make(chan wireReq, 4*wireWindow)
	done := make(chan struct{})
	waitLog := tr.log()
	go func() {
		defer close(done)
		for r := range reqs {
			err := r.p.Wait()
			end := int64(time.Since(clock))
			if err != nil {
				ph.failed++
				continue
			}
			ph.acks = append(ph.acks, float64(end-r.issueAt)/1e3)
			if r.traced {
				waitLog.add(span{Layer: layerAck, ID: requestID(r.s, r.seq), Start: r.issueAt, End: end})
			}
		}
	}()
	genLog := tr.log()
	cpu0, bcpu0 := w.srv.cpu(), selfCPU()
	start := time.Now()
	ph.start = int64(start.Sub(clock))
	deadline := start.Add(d)
	var sent int64
	var genErr error
	for k := 0; ; k++ {
		if k&63 == 0 && time.Now().After(deadline) {
			break
		}
		s := k % len(in.ids)
		genAt := int64(time.Since(clock))
		o := in.obs(s, pos[s])
		issueAt := int64(time.Since(clock))
		p, err := w.c.IngestAsync(in.ids[s], o)
		if err != nil {
			genErr = err
			break
		}
		issue[s] = append(issue[s], issueAt)
		pos[s]++
		sent++
		traced := tr != nil && pos[s]%wireTraceEvery == 0
		if tr != nil {
			callEnd := int64(time.Since(clock))
			ph.callNS += callEnd - issueAt
			if traced {
				id := requestID(s, pos[s])
				genLog.add(span{Layer: layerClient, Parent: layerBench, ID: id, Start: issueAt, End: callEnd})
				genLog.add(span{Layer: layerBench, ID: id, Start: genAt, End: int64(time.Since(clock))})
			}
		}
		reqs <- wireReq{p: p, s: s, seq: pos[s], issueAt: issueAt, traced: traced}
	}
	ph.genWall = time.Since(start)
	close(reqs)
	<-done
	if genErr != nil {
		return nil, fmt.Errorf("ingest: %w", genErr)
	}
	if ph.preFlush, err = w.c.Snapshot(); err != nil {
		return nil, err
	}
	b0 := time.Now()
	if err := w.c.FlushCheckpoints(); err != nil {
		return nil, fmt.Errorf("barrier: %w", err)
	}
	ph.barrier = time.Since(b0)
	if tr != nil {
		genLog.add(span{Layer: layerMonitor, Start: tr.at(b0), End: tr.at(b0.Add(ph.barrier))})
	}
	ph.wall = time.Since(start)
	ph.cpu, ph.benchCPU = w.srv.cpu()-cpu0, selfCPU()-bcpu0
	ph.obs = sent - ph.failed
	if ph.post, err = w.c.Snapshot(); err != nil {
		return nil, err
	}
	return ph, nil
}

func runWireSingle(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	in := buildDDMInputs(rc.seed)
	clock := time.Now()
	var setups []float64
	var w *wireSystem
	for i := 0; i < wireSetups; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = startWire(rc, in, clock); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	from := 1 // position 0 of every stream was sent during set-up
	pos := make([]int, len(in.ids))
	issue := make([][]int64, len(in.ids))
	for s := range pos {
		pos[s] = from
		issue[s] = make([]int64, 0, 2048)
	}
	total := time.Duration(rc.seconds * float64(time.Second))
	var tr *tracer
	var plain, ph *wirePhase
	var err error
	if rc.trace {
		if plain, err = runWirePhase(w, in, pos, issue, total/2, clock, nil); err != nil {
			return nil, err
		}
		tr = newTracer(clock)
		if ph, err = runWirePhase(w, in, pos, issue, total/2, clock, tr); err != nil {
			return nil, err
		}
	} else if ph, err = runWirePhase(w, in, pos, issue, total, clock, nil); err != nil {
		return nil, err
	}
	first := ph
	if plain != nil {
		first = plain
	}

	// Correctness, outside the timed window.
	checkConservation(o, ph.post)
	want := int(ph.post.Drifts - ph.post.SubscriberDropped)
	if !w.col.waitFor(want, 10*time.Second) {
		o.fail("subscriber received %d of %d drift events", w.col.count(), want)
	}
	events := w.col.snapshot()
	if w.col.unknown > 0 {
		o.fail("%d drift events for streams the run never sent", w.col.unknown)
	}
	evs := byStream(events, len(in.ids))
	var score driftScore
	for s := range in.ids {
		if err := compareEvents(evs[s], referenceDDM(in, s, pos[s])); err != nil {
			o.fail("stream %s: %v", in.ids[s], err)
		}
		score.add(scoreStream(eventSeqs(evs[s]), in.drifts(s, pos[s]), from, pos[s], ddmRecover))
	}
	if score.Evaluable == 0 {
		o.fail("no injected drift lies inside the timed run")
	}

	timedObs, wall := ph.obs, ph.wall
	if plain != nil {
		timedObs += plain.obs
		wall += plain.wall
	}
	shed := ph.post.Shedded - first.pre.Shedded
	dropped := ph.post.SubscriberDropped - first.pre.SubscriberDropped
	o.attempted = timedObs + ph.failed + int64(len(events)) + int64(dropped)
	o.failed = ph.failed + int64(shed) + int64(dropped)
	if plain != nil {
		o.attempted += plain.failed
		o.failed += plain.failed
	}

	m := o.metrics
	m["obs_per_s"] = float64(ph.obs) / ph.wall.Seconds()
	m["cpu_us_per_obs"] = ph.cpu.Seconds() * 1e6 / float64(ph.obs)
	acks := summarize(append([]float64(nil), ph.acks...))
	m["ack_p50_us"], m["bench.ack_p95_us"] = acks.P50, acks.P95
	m["slo_met_frac"] = fracWithin(ph.acks, float64(wireLimit.Microseconds())) * float64(len(ph.acks)) / float64(len(ph.acks)+int(ph.failed))
	dueOf := func(e driftEvent) (int64, bool) {
		if i := e.Seq - 1 - from; i >= 0 && i < len(issue[e.Stream]) {
			return issue[e.Stream][i], true
		}
		return 0, false
	}
	var lat []float64
	for _, e := range events {
		if due, ok := dueOf(e); ok {
			lat = append(lat, float64(e.Arrive-due)/1e6)
		}
	}
	evLat := summarize(lat)
	m["event_p50_ms"], m["bench.event_p95_ms"] = evLat.P50, evLat.P95
	setScore(m, score, timedObs)
	m["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	m["setup_s"] = median(setups)
	m["rss_peak_mb"] = w.srv.hwmMB()
	o.logf("wire-single: %d DDM-OCI streams, window %d, %d obs in %.2fs (barrier %.1fms); %d events; %v; setups %v",
		len(in.ids), wireWindow, timedObs, wall.Seconds(), ph.barrier.Seconds()*1e3, len(events), score, fmtSecs(setups))
	o.logf("ack (IngestAsync to Wait) %s; event latency %s", fmtSummary(acks, "us"), fmtSummary(evLat, "ms"))
	o.logf("final snapshot: %s", describeSnapshot(ph.post))

	if rc.trace {
		tr.addEvents(events, dueOf, ph.start)
		tracedWire(o, rc, w, plain, ph, tr)
	}
	return o, nil
}

// tracedWire fills the per-layer metrics and the layer budget.
func tracedWire(o *outcome, rc runConfig, w *wireSystem, plain, ph *wirePhase, tr *tracer) {
	m := o.metrics
	serverLayers(o, ph.pre, ph.post, "ingest", shardDiff(ph.pre.ShardIngested, ph.post.ShardIngested))
	m["monitor.queue_high_water"] = float64(ph.preFlush.QueueHighWater)
	m["monitor.barrier_ms"] = ph.barrier.Seconds() * 1e3
	rtt := stageDiff(w.c.Latency(), ph.rttPre, "rtt_ingest")
	m["server.client.rtt_p50_us"], m["server.client.rtt_p99_us"] = us(rtt.P50NS), us(rtt.P99NS)
	m["server.client.reconnects"] = float64(w.c.Reconnects())
	m["bench.window_wait_frac"] = float64(ph.callNS) / float64(ph.genWall.Nanoseconds())
	reportOverhead(o, figures(plain.obs, plain.wall, plain.cpu, plain.acks), figures(ph.obs, ph.wall, ph.cpu, ph.acks), false)
	acks := summarize(append([]float64(nil), ph.acks...))
	rttCheck(o, acks.P50, us(rtt.P50NS))

	spans := tr.all()
	lt := selfTimes(spans)
	obs := float64(ph.obs)
	benchSelf := float64(lt[layerBench].Self) / float64(max(lt[layerBench].Count, 1)) / 1e3
	benchTotal := float64(lt[layerBench].Total) / float64(max(lt[layerBench].Count, 1)) / 1e3
	client := ph.benchCPU.Seconds()*1e6/obs - benchSelf
	srv := ph.cpu.Seconds() * 1e6 / obs
	det := serverStageMean(stageDiff(ph.post.Latency, ph.pre.Latency, "detector_update"), ph.obs)
	reportBudget(o, map[string]budgetRow{
		layerBench:   {benchTotal, benchSelf, "spans, 1 in 16 requests"},
		layerClient:  {client, client, "benchmark CPU minus bench"},
		layerServer:  {srv, srv - det, "server CPU minus monitor"},
		layerMonitor: {det, det, "detector_update histogram"},
	})
	saveSpans(o, rc, spans)
}
