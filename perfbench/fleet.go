package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/server"
	"rbmim/internal/telemetry"
)

const (
	fleetMembers = 2
	// fleetShards is each member's shard count: one, so the two members'
	// shards match the 2 cores the fleet runs on. With the default of one
	// shard per core, four shard threads and the load generator contend
	// for 2 cores: over five seeds the generator's p99 lateness was
	// 1.4-11 ms, against 1.1-1.5 ms with one shard per member.
	fleetShards = 1
	// fleetRate is the open loop's fixed offered rate in 256-observation
	// blocks per second: about a fifth of the fleet's capacity (about 1130
	// blocks/s on a 2-vCPU Xeon VM), so the fleet keeps headroom when the
	// host takes CPU time away. With two real-time burners taking a quarter
	// of each vCPU, the event latency p50 rose 42-67% at 400 blocks/s and
	// 7-23% at 250; at half capacity each member's single shard queues
	// often enough that the event latency p95 spread 0.85 over five seeds.
	fleetRate = 250
	// fleetWindow is each member connection's in-flight window.
	fleetWindow = 64
	// fleetLimit is fleet's latency limit for one block ack, timed from the
	// block's due time.
	fleetLimit = 50 * time.Millisecond
	// fleetLateBound is the largest p99 generator lateness at which a fleet
	// run still offers its nominal rate; a later run is invalid.
	fleetLateBound = 25 * time.Millisecond
	// fleetCkptInterval is the members' periodic checkpoint cadence.
	fleetCkptInterval = time.Second
	// fleetMigrateEvery spaces the live migrations.
	fleetMigrateEvery = 5 * time.Second
	// fleetSettle is how long the open loop runs untimed before the timed
	// window, so timing starts on a loop in its steady state. Without it
	// the first 3-6 s of some runs read event latency p50s 35% or more
	// above the rest of the run.
	fleetSettle = 6 * time.Second
	// minFleetEvents sizes a run so bench.event_p95_ms has at least ten samples
	// beyond it.
	minFleetEvents = 200
)

// fleetSystem is one running fleet: two driftserver processes, the cluster
// client, and one subscription per member.
type fleetSystem struct {
	members []*child
	dirs    []string
	cc      *server.ClusterClient
	subCli  []*server.Client
	subs    []*server.Subscription
	col     *collector
}

func (f *fleetSystem) close() {
	for _, s := range f.subs {
		s.Close()
	}
	for _, c := range f.subCli {
		c.Close()
	}
	if f.cc != nil {
		f.cc.Close()
	}
	for _, m := range f.members {
		m.stop()
	}
	if f.col != nil {
		f.col.wg.Wait()
	}
	for _, d := range f.dirs {
		os.RemoveAll(d)
	}
}

// startFleet starts the members with filesystem checkpoints, dials the
// cluster, subscribes to every member and warms every stream past the
// detector warm-up, ending on a barrier.
func startFleet(rc runConfig, streams []*rbmStream, ids []string, clock time.Time, n int) (*fleetSystem, error) {
	f := &fleetSystem{}
	var addrs []string
	for i := 0; i < fleetMembers; i++ {
		dir := filepath.Join(rc.workDir, fmt.Sprintf("setup%d-member%d", n, i))
		f.dirs = append(f.dirs, dir)
		m, err := startChild(filepath.Join(binDir, "driftserver"),
			"-addr", "127.0.0.1:0", "-features", fmt.Sprint(features), "-classes", fmt.Sprint(classes),
			"-seed", fmt.Sprint(detectorSeed), "-shards", fmt.Sprint(fleetShards), "-checkpoint", dir, "-ckptint", fleetCkptInterval.String())
		if err != nil {
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
		addrs = append(addrs, m.addr)
	}
	var err error
	f.cc, err = server.DialCluster(server.ClusterConfig{Addrs: addrs, Window: fleetWindow, Policy: server.DefaultRetryPolicy()})
	if err != nil {
		f.close()
		return nil, err
	}
	f.col = newCollector(ids, clock)
	for _, a := range addrs {
		c, err := server.Dial(a)
		if err != nil {
			f.close()
			return nil, err
		}
		f.subCli = append(f.subCli, c)
		sub, err := c.Subscribe(1 << 12)
		if err != nil {
			f.close()
			return nil, err
		}
		f.subs = append(f.subs, sub)
		f.col.follow(sub)
	}
	var pend []server.Pending
	for b := 0; b < warmupBlocks; b++ {
		for _, s := range streams {
			p, err := f.cc.IngestBatchAsync(s.id, s.block(b*blockSize))
			if err != nil {
				f.close()
				return nil, err
			}
			pend = append(pend, p)
		}
	}
	for _, p := range pend {
		if err := p.Wait(); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := f.cc.FlushCheckpoints(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// fleetReq is one in-flight block.
type fleetReq struct {
	p        server.Pending
	s, seq   int
	due      int64 // run clock
	submitAt int64
}

// fleetPhase is one timed open-loop phase.
type fleetPhase struct {
	blocks, failed int64
	wall           time.Duration
	cpu            time.Duration
	acks           []ackSample
	late           []float64 // ms, submit start minus due
	callNS         int64
	start          int64 // run clock
	genWall        time.Duration
	benchCPU       time.Duration
	migrations     []interval
	migrateFailed  int
	barrier        time.Duration
	pre, preFlush  monitor.Snapshot
	post           monitor.Snapshot
	preMembers     []server.MemberSnapshot
	postMembers    []server.MemberSnapshot
	rttPre         []telemetry.Stage
}

func (ph *fleetPhase) figures() phaseFigures {
	acks := make([]float64, len(ph.acks))
	for i, a := range ph.acks {
		acks[i] = float64(a.end-a.due) / 1e3
	}
	return figures(ph.blocks*blockSize, ph.wall, ph.cpu, acks)
}

type ackSample struct {
	due, submit, end int64
}

type interval struct{ start, end int64 }

func (f *fleetSystem) cpu() time.Duration {
	var t time.Duration
	for _, m := range f.members {
		t += m.cpu()
	}
	return t
}

func (f *fleetSystem) snapshot() (monitor.Snapshot, []server.MemberSnapshot, error) {
	ms, err := f.cc.MemberSnapshots()
	if err != nil {
		return monitor.Snapshot{}, nil, err
	}
	sns := make([]monitor.Snapshot, len(ms))
	for i, m := range ms {
		sns[i] = m.Snapshot
	}
	return monitor.MergeSnapshots(sns...), ms, nil
}

// runFleetPhase offers blocks round-robin over the streams at fleetRate for
// d, continuing every stream from pos, with live migrations; marks[s]
// collects each block's due time.
func runFleetPhase(f *fleetSystem, streams []*rbmStream, pos []int, marks [][]dueMark, d time.Duration, clock time.Time, seed int64, migrated *int, tr *tracer) (*fleetPhase, error) {
	ph := &fleetPhase{}
	var err error
	if ph.pre, ph.preMembers, err = f.snapshot(); err != nil {
		return nil, err
	}
	ph.rttPre = f.cc.Latency()
	members := f.cc.Members()
	queues := make(map[string]chan fleetReq, len(members))
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, addr := range members {
		// Deeper than a member's in-flight window, so handing an ack to
		// its waiter never delays the schedule while the window has room.
		q := make(chan fleetReq, 4*fleetWindow)
		queues[addr] = q
		log := tr.log()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range q {
				err := r.p.Wait()
				end := int64(time.Since(clock))
				mu.Lock()
				if err != nil {
					ph.failed++
				} else {
					ph.acks = append(ph.acks, ackSample{due: r.due, submit: r.submitAt, end: end})
				}
				mu.Unlock()
				log.add(span{Layer: layerAck, ID: requestID(r.s, r.seq), Start: r.submitAt, End: end})
			}
		}()
	}

	// send submits stream s's block starting at seq and hands its ack to
	// the owner's waiter, returning the submit call's start and end.
	send := func(s, seq int, due int64) (int64, int64, error) {
		id := streams[s].id
		owner, err := f.cc.Owner(id)
		if err != nil {
			return 0, 0, err
		}
		submitAt := int64(time.Since(clock))
		p, err := f.cc.IngestBatchAsync(id, streams[s].block(seq-1))
		callEnd := int64(time.Since(clock))
		if err != nil {
			return 0, 0, err
		}
		queues[owner] <- fleetReq{p: p, s: s, seq: seq, due: due, submitAt: submitAt}
		return submitAt, callEnd, nil
	}
	// The sources are independent, so a migrating stream's blocks wait
	// beside the generator, not in it: sent through the stream's migration
	// gate they would stall every other stream's schedule behind it.
	var hold struct {
		sync.Mutex
		stream int // -1 when no stream is migrating
		blocks []fleetReq
	}
	hold.stream = -1

	stop := make(chan struct{})
	migDone := make(chan struct{})
	migLog := tr.log()
	go func() {
		defer close(migDone)
		// Migrate only streams of the reference sample, so the
		// correctness gate compares every migrated stream's events.
		order := sampleStreams(seed, len(streams), referenceSample)
		t := time.NewTicker(fleetMigrateEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			s := order[*migrated%len(order)]
			*migrated++
			id := streams[s].id
			owner, err := f.cc.Owner(id)
			if err != nil {
				mu.Lock()
				ph.migrateFailed++
				mu.Unlock()
				continue
			}
			target := members[0]
			if owner == target {
				target = members[1]
			}
			hold.Lock()
			hold.stream = s
			hold.Unlock()
			m0 := int64(time.Since(clock))
			err = f.cc.Migrate(id, target)
			m1 := int64(time.Since(clock))
			hold.Lock()
			var failed int64
			for _, b := range hold.blocks {
				if _, _, err := send(b.s, b.seq, b.due); err != nil {
					failed++
				}
			}
			hold.blocks, hold.stream = hold.blocks[:0], -1
			hold.Unlock()
			mu.Lock()
			ph.migrations = append(ph.migrations, interval{m0, m1})
			if err != nil {
				ph.migrateFailed++
			}
			ph.failed += failed
			mu.Unlock()
			migLog.add(span{Layer: layerCluster, ID: requestID(s, 0), Start: m0, End: m1})
		}
	}()

	genLog := tr.log()
	cpu0, bcpu0 := f.cpu(), selfCPU()
	start := time.Now()
	startNS := int64(start.Sub(clock))
	ph.start = startNS
	period := float64(time.Second) / fleetRate
	total := int(d.Seconds() * fleetRate)
	var genErr error
	for k := 0; k < total; k++ {
		due := startNS + int64(float64(k)*period)
		if wait := due - int64(time.Since(clock)); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		wake := int64(time.Since(clock))
		s := k % len(streams)
		seq := pos[s] + 1
		marks[s] = append(marks[s], dueMark{FirstSeq: seq, Due: due})
		pos[s] += blockSize
		ph.blocks++
		hold.Lock()
		if hold.stream == s {
			hold.blocks = append(hold.blocks, fleetReq{s: s, seq: seq, due: due})
			hold.Unlock()
			continue
		}
		hold.Unlock()
		submitAt, callEnd, err := send(s, seq, due)
		if err != nil {
			genErr = err
			break
		}
		ph.late = append(ph.late, float64(submitAt-due)/1e6)
		if tr != nil {
			ph.callNS += callEnd - submitAt
			id := requestID(s, seq)
			genLog.add(span{Layer: layerClient, Parent: layerBench, ID: id, Start: submitAt, End: callEnd})
			genLog.add(span{Layer: layerBench, ID: id, Start: wake, End: int64(time.Since(clock))})
		}
	}
	ph.genWall = time.Since(start)
	close(stop)
	<-migDone
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	if genErr != nil {
		return nil, fmt.Errorf("ingest: %w", genErr)
	}
	if ph.preFlush, _, err = f.snapshot(); err != nil {
		return nil, err
	}
	b0 := time.Now()
	if err := f.cc.FlushCheckpoints(); err != nil {
		return nil, fmt.Errorf("barrier: %w", err)
	}
	ph.barrier = time.Since(b0)
	if tr != nil {
		genLog.add(span{Layer: layerMonitor, Start: tr.at(b0), End: tr.at(b0.Add(ph.barrier))})
	}
	ph.wall = time.Since(start)
	ph.cpu, ph.benchCPU = f.cpu()-cpu0, selfCPU()-bcpu0
	if ph.post, ph.postMembers, err = f.snapshot(); err != nil {
		return nil, err
	}
	return ph, nil
}

func runFleet(rc runConfig) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}}
	streams, err := buildRBMStreams(rc.seed)
	if err != nil {
		return nil, err
	}
	ids := make([]string, len(streams))
	for i, s := range streams {
		ids[i] = s.id
	}
	clock := time.Now()
	var setups []float64
	var f *fleetSystem
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		if f, err = startFleet(rc, streams, ids, clock, i); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()

	from := warmupBlocks * blockSize
	pos := make([]int, len(streams))
	for s := range pos {
		pos[s] = from
	}
	migrated := 0
	// The settle phase's blocks get marks of their own, so only the timed
	// phases' events have a due time and enter the latency figures; its
	// blocks and events still count for correctness and drift scoring.
	settle, err := runFleetPhase(f, streams, pos, make([][]dueMark, len(streams)), fleetSettle, clock, rc.seed, &migrated, nil)
	if err != nil {
		return nil, err
	}
	marks := make([][]dueMark, len(streams))
	total := time.Duration(rc.seconds * float64(time.Second))
	var tr *tracer
	var plain, ph *fleetPhase
	if rc.trace {
		if plain, err = runFleetPhase(f, streams, pos, marks, total/2, clock, rc.seed, &migrated, nil); err != nil {
			return nil, err
		}
		tr = newTracer(clock)
		if ph, err = runFleetPhase(f, streams, pos, marks, total/2, clock, rc.seed, &migrated, tr); err != nil {
			return nil, err
		}
	} else if ph, err = runFleetPhase(f, streams, pos, marks, total, clock, rc.seed, &migrated, nil); err != nil {
		return nil, err
	}
	// phases runs from the last phase back to the settle phase.
	phases := []*fleetPhase{ph}
	if plain != nil {
		phases = append(phases, plain)
	}
	phases = append(phases, settle)

	// Correctness and validity, outside the timed window.
	checkWarmup(o)
	if warm := uint64(len(streams) * warmupBlocks * blockSize); phases[len(phases)-1].pre.Ingested < warm {
		o.fail("members ingested %d observations before timing, warm-up needs %d", phases[len(phases)-1].pre.Ingested, warm)
	}
	checkConservation(o, ph.post)
	want := int(ph.post.Drifts - ph.post.SubscriberDropped)
	if !f.col.waitFor(want, 10*time.Second) {
		o.fail("subscribers received %d of %d drift events", f.col.count(), want)
	}
	events := f.col.snapshot()
	if f.col.unknown > 0 {
		o.fail("%d drift events for streams the run never sent", f.col.unknown)
	}
	evs := byStream(events, len(streams))
	for _, s := range sampleStreams(rc.seed, len(streams), referenceSample) {
		ref, err := referenceRBM(streams[s], pos[s])
		if err != nil {
			return nil, err
		}
		if err := compareEvents(evs[s], ref); err != nil {
			o.fail("stream %s: %v", streams[s].id, err)
		}
	}
	score := scoreRBM(streams, evs, from, pos)
	if score.Evaluable == 0 {
		o.fail("no injected drift lies inside the timed run")
	}
	lat := summarize(eventLatencies(events, marks))
	if lat.N < minFleetEvents {
		o.fail("%d timed drift events, fewer than the %d bench.event_p95_ms needs", lat.N, minFleetEvents)
	}
	late := summarize(append([]float64(nil), ph.late...))
	if late.P99 > float64(fleetLateBound.Milliseconds()) {
		o.fail("invalid run: generator lateness p99 %.1fms exceeds %v, the offered rate was not met", late.P99, fleetLateBound)
	}

	var blocks, failed, migrations, migFailed int64
	var wall time.Duration
	for _, p := range phases {
		wall += p.wall
		blocks += p.blocks
		failed += p.failed
		migrations += int64(len(p.migrations))
		migFailed += int64(p.migrateFailed)
	}
	first := phases[len(phases)-1]
	shed := ph.post.Shedded - first.pre.Shedded
	dropped := ph.post.SubscriberDropped - first.pre.SubscriberDropped
	saves := ph.post.Checkpoints - first.pre.Checkpoints
	ckptErr := ph.post.CheckpointErrors - first.pre.CheckpointErrors
	o.attempted = blocks + int64(len(events)) + int64(dropped) + migrations + int64(saves) + int64(ckptErr)
	o.failed = failed + int64(shed) + int64(dropped) + migFailed + int64(ckptErr)

	m := o.metrics
	obs := ph.blocks - ph.failed
	m["obs_per_s"] = float64(obs*blockSize) / ph.wall.Seconds()
	m["cpu_us_per_obs"] = ph.cpu.Seconds() * 1e6 / float64(obs*blockSize)
	ackUS := make([]float64, len(ph.acks))
	for i, a := range ph.acks {
		ackUS[i] = float64(a.end-a.due) / 1e3
	}
	acks := summarize(ackUS)
	m["ack_p50_us"], m["bench.ack_p95_us"] = acks.P50, acks.P95
	m["slo_met_frac"] = fracWithin(ackUS, float64(fleetLimit.Microseconds())) * float64(len(ackUS)) / float64(len(ackUS)+int(ph.failed))
	m["event_p50_ms"], m["bench.event_p95_ms"] = lat.P50, lat.P95
	setScore(m, score, blocks*blockSize)
	m["ok_frac"] = 1 - float64(o.failed)/float64(o.attempted)
	m["setup_s"] = median(setups)
	for _, c := range f.members {
		m["rss_peak_mb"] += c.hwmMB()
	}
	o.logf("fleet: %d members, %d streams, offered %d blocks/s, %d blocks (%d obs) in %.2fs with the %v settle (barrier %.1fms); %d events; %v; %d migrations (%d failed); setups %v",
		fleetMembers, len(streams), fleetRate, blocks, blocks*blockSize, wall.Seconds(), fleetSettle, ph.barrier.Seconds()*1e3, len(events),
		score, migrations, migFailed, fmtSecs(setups))
	o.logf("ack (due to ack) %s; event latency (due to arrival) %s", fmtSummary(acks, "us"), fmtSummary(lat, "ms"))
	o.logf("generator lateness %s (bound p99 %v)", fmtSummary(late, "ms"), fleetLateBound)
	o.logf("final snapshot: %s", describeSnapshot(ph.post))

	if rc.trace {
		tr.addEvents(events, func(e driftEvent) (int64, bool) { return dueFor(marks[e.Stream], e.Seq) }, ph.start)
		tracedFleet(o, rc, f, streams, pos, plain, ph, tr)
	}
	return o, nil
}

// tracedFleet fills the per-layer metrics and the layer budget.
func tracedFleet(o *outcome, rc runConfig, f *fleetSystem, streams []*rbmStream, pos []int, plain, ph *fleetPhase, tr *tracer) {
	m := o.metrics
	var shards []uint64
	for i, ms := range ph.postMembers {
		var pre []uint64
		if i < len(ph.preMembers) {
			pre = ph.preMembers[i].ShardIngested
		}
		shards = append(shards, shardDiff(pre, ms.ShardIngested)...)
	}
	serverLayers(o, ph.pre, ph.post, "ingest_batch", shards)
	m["monitor.queue_high_water"] = float64(ph.preFlush.QueueHighWater)
	m["monitor.barrier_ms"] = ph.barrier.Seconds() * 1e3
	m["monitor.ckpt.bytes_per_stream"] = checkpointBytes(f.dirs)
	rtt := stageDiff(f.cc.Latency(), ph.rttPre, "rtt_ingest_batch")
	m["server.client.rtt_p50_us"], m["server.client.rtt_p99_us"] = us(rtt.P50NS), us(rtt.P99NS)
	o.logf("server.client.reconnects: ClusterClient does not expose its pools' reconnect counts; 0 reported")

	var migMS []float64
	for _, iv := range ph.migrations {
		migMS = append(migMS, float64(iv.end-iv.start)/1e6)
	}
	mig := summarize(migMS)
	m["server.cluster.migrations"] = float64(len(ph.migrations))
	m["server.cluster.migrate_ms_p50"], m["server.cluster.migrate_ms_max"] = mig.P50, mig.Max
	var memberObs []uint64
	for i, ms := range ph.postMembers {
		n := ms.Ingested
		if i < len(ph.preMembers) {
			n -= ph.preMembers[i].Ingested
		}
		memberObs = append(memberObs, n)
	}
	m["server.cluster.member_skew"] = skew(memberObs)
	var during []float64
	for _, a := range ph.acks {
		for _, iv := range ph.migrations {
			if a.due <= iv.end && a.end >= iv.start {
				during = append(during, float64(a.end-a.due)/1e3)
				break
			}
		}
	}
	m["server.cluster.ack_p99_migrating_us"] = summarize(during).P99
	m["bench.window_wait_frac"] = float64(ph.callNS) / float64(ph.genWall.Nanoseconds())
	m["bench.gen_late_p99_ms"] = summarize(append([]float64(nil), ph.late...)).P99

	reportOverhead(o, plain.figures(), ph.figures(), true)

	upd := coreReplay(o, rc.seed, streams, pos, tr)
	obs := ph.blocks * blockSize
	det := serverStageMean(stageDiff(ph.post.Latency, ph.pre.Latency, "detector_update"), obs)
	ckpt := serverStageMean(stageDiff(ph.post.Latency, ph.pre.Latency, "checkpoint_save"), obs) +
		serverStageMean(stageDiff(ph.post.Latency, ph.pre.Latency, "checkpoint_put"), obs)
	const detTolerance = 1.5
	if upd > 0 {
		r := det * 1e3 / upd
		flag := "agree"
		if r > detTolerance || r < 1/detTolerance {
			flag = "DISAGREE"
		}
		o.logf("cross-check monitor.detector_update %.0fns/obs vs core.update_ns_per_obs %.0f: ratio %.2f, tolerance x%.1f: %s", det*1e3, upd, r, detTolerance, flag)
	}
	// The client's RTT starts at submission, so compare it with the ack
	// timed from submission rather than from the due time.
	acks := make([]float64, len(ph.acks))
	for i, a := range ph.acks {
		acks[i] = float64(a.end-a.submit) / 1e3
	}
	rttCheck(o, summarize(acks).P50, us(rtt.P50NS))

	spans := tr.all()
	lt := selfTimes(spans)
	perObs := func(ns int64) float64 { return float64(ns) / float64(obs) / 1e3 }
	benchSelf := perObs(lt[layerBench].Self)
	client := ph.benchCPU.Seconds()*1e6/float64(obs) - benchSelf
	srv := ph.cpu.Seconds() * 1e6 / float64(obs)
	core := upd / 1e3
	reportBudget(o, map[string]budgetRow{
		layerBench:   {perObs(lt[layerBench].Total), benchSelf, "spans"},
		layerClient:  {client, client, "benchmark CPU minus bench"},
		layerCluster: {perObs(lt[layerCluster].Total), perObs(lt[layerCluster].Self), "Migrate spans (wall)"},
		layerServer:  {srv, srv - det - ckpt, "member CPU minus monitor and checkpoints"},
		layerMonitor: {det, max(det-core, 0), "detector_update histogram minus core"},
		layerCkpt:    {ckpt, ckpt, "checkpoint histograms"},
		layerCore:    {core, core, "replay spans"},
	})
	saveSpans(o, rc, spans)
}

// coreReplay times the core layer for a served workload: it replays a
// seed-derived sample of streams through fresh in-process detectors (warm-up
// untimed, then the run's blocks of 256) and the RBM kernels on clones,
// filling the core.* metrics. It returns core.update_ns_per_obs.
func coreReplay(o *outcome, seed int64, streams []*rbmStream, pos []int, tr *tracer) float64 {
	m := o.metrics
	sample := sampleStreams(seed, len(streams), referenceSample)
	dets := make([]*core.Detector, len(streams))
	log := tr.log()
	states := make([]detectors.State, blockSize)
	var blockUS []float64
	var totalNS, obs int64
	var ms runtime.MemStats
	var allocs uint64
	for _, s := range sample {
		det, err := core.NewDetector(core.Config{Features: features, Classes: classes, Seed: detectorSeedFor(streams[s].id)})
		if err != nil {
			o.fail("core replay: %v", err)
			return 0
		}
		for b := 0; b < warmupBlocks; b++ {
			det.UpdateBatch(streams[s].block(b*blockSize), states)
		}
		runtime.ReadMemStats(&ms)
		a0 := ms.Mallocs
		for p := warmupBlocks * blockSize; p < pos[s]; p += blockSize {
			blk := streams[s].block(p)
			t0 := tr.now()
			det.UpdateBatch(blk, states)
			t1 := tr.now()
			log.add(span{Layer: layerCore, ID: requestID(s, p+1), Start: t0, End: t1})
			blockUS = append(blockUS, float64(t1-t0)/1e3)
			totalNS += t1 - t0
			obs += blockSize
		}
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - a0
		dets[s] = det
	}
	if obs == 0 {
		o.fail("core replay: no timed blocks")
		return 0
	}
	upd := float64(totalNS) / float64(obs)
	b := summarize(blockUS)
	m["core.update_ns_per_obs"] = upd
	m["core.update_block_p50_us"], m["core.update_block_p99_us"] = b.P50, b.P99
	m["core.allocs_per_kobs"] = float64(allocs) * 1000 / float64(obs)
	train, score := replayKernels(seed, streams, dets, pos, tr)
	m["core.rbm_train_ns_per_obs"], m["core.rbm_score_ns_per_obs"] = train, score
	m["core.detect_self_ns_per_obs"] = upd - train - score
	o.logf("core replay (%d streams, %d obs): update %.0f ns/obs = rbm train %.0f + rbm score %.0f + detector self %.0f",
		len(sample), obs, upd, train, score, upd-train-score)
	return upd
}

// checkpointBytes is the mean checkpoint file size over the members'
// stores.
func checkpointBytes(dirs []string) float64 {
	var total int64
	var files int
	for _, d := range dirs {
		_ = filepath.Walk(d, func(_ string, info os.FileInfo, err error) error {
			if err != nil {
				return nil
			}
			if info.Mode().IsRegular() {
				total += info.Size()
				files++
			}
			return nil
		})
	}
	if files == 0 {
		return 0
	}
	return float64(total) / float64(files)
}
