// Package monitor multiplexes many independent data streams onto a fixed
// pool of worker shards, giving every stream its own RBM-IM (or any other)
// drift detector while bounding goroutines and memory to the shard count.
// This is the multi-tenant deployment shape the paper motivates — thousands
// of IoT / intrusion / sensor feeds, each imbalanced in its own way, each
// needing skew-insensitive per-class drift detection — run as one service:
//
//	m, _ := monitor.New(monitor.Config{
//		Detector: core.Config{Features: 20, Classes: 5},
//	})
//	defer m.Close()
//	sub, _ := m.Subscribe(0)
//	go func() {
//		for ev := range sub.Events() {
//			log.Printf("stream %s drifted on classes %v", ev.StreamID, ev.Classes)
//		}
//	}()
//	m.IngestBatch("sensor-17", block) // block []detectors.Observation; one observation is a block of one
//
// Streams are placed on shards by consistent hashing of the stream ID
// (FNV-1a + jump hash), so placement is deterministic, balanced, and maximally
// stable under shard-count changes. Each shard is a single goroutine that
// owns its streams' detectors outright — no locks on the hot path — and
// drains a bounded MPSC ring buffer (see ring.go) of observations in
// micro-batches: every wakeup pops whatever is queued (bounded), groups it
// per stream, and hands each stream's run to its detector in one UpdateBatch
// call. IngestBatch (blocking) and TryIngestBatch (dropping) are the only
// ingest verbs: a whole block moves through the queue in a single copied
// slab — one ring slot per block, a single observation being a block of
// one. Drift events fan out through Subscribe, one bounded queue per
// consumer. Because a stream lives on exactly one shard and the ring
// preserves per-producer FIFO order, a stream's observations reach its
// detector in send order at any GOMAXPROCS: the parallel monitor's per-stream
// drift decisions are identical to a sequential run's (ordering_test.go
// proves it). Detectors are created lazily on first ingest, evicted
// explicitly via Evict, or garbage-collected after Config.IdleTTL without
// traffic.
package monitor

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rbmim/internal/codec"
	"rbmim/internal/core"
	"rbmim/internal/detectors"
	"rbmim/internal/telemetry"
)

// Factory builds a fresh detector for a newly observed stream. The monitor
// hands each detector observations whose X and Scores slices view a pooled
// slab that is reused the moment the detector consumed them, so detectors
// built by a Factory must not retain o.X or o.Scores past Update /
// UpdateBatch (copy them if they need history; RBM-IM and all bundled
// baselines already comply). Detectors implementing detectors.BatchDetector
// receive whole micro-batches in one call.
type Factory func(streamID string) (detectors.Detector, error)

// Config parameterizes a Monitor. The zero value of every field except
// Detector (or NewDetector) selects a sensible default.
type Config struct {
	// Detector is the RBM-IM configuration template used by the default
	// factory; Features and Classes are required unless NewDetector is set.
	// Every stream gets an independent detector seeded from Detector.Seed
	// and the stream ID, so runs are reproducible per stream.
	Detector core.Config
	// NewDetector overrides the default RBM-IM factory, letting the monitor
	// host any detectors.Detector implementation (e.g. a cheap baseline for
	// low-value streams). When set, Detector is ignored except for Classes,
	// which sizes the per-class drift statistics.
	NewDetector Factory
	// Shards is the number of worker goroutines; <= 0 selects
	// AutotuneShards() (runtime.GOMAXPROCS at construction — one worker per
	// schedulable core).
	Shards int
	// QueueSize is each shard's ring-buffer capacity in envelopes (an
	// IngestBatch block occupies one envelope), rounded up to a power of
	// two; default 1024. IngestBatch blocks when the target shard's ring is
	// full (backpressure); TryIngestBatch drops instead.
	QueueSize int
	// EventBuffer is the queue capacity of a Subscribe call that does not
	// give one; default 256.
	EventBuffer int
	// SubscriberEvictDrops, when > 0, evicts a Subscribe fan-out queue once
	// it has dropped this many events: the subscription is closed (its Events
	// channel terminates) and the eviction counted in
	// Snapshot.SubscribersEvicted. Dropping protects the shards from a slow
	// subscriber; eviction additionally reclaims the queue and tells the
	// subscriber — rather than silently thinning its event stream forever —
	// that it fell irrecoverably behind and should reconnect and resync.
	// Zero keeps the drop-only policy.
	SubscriberEvictDrops int
	// IdleTTL evicts streams that have received no observations for this
	// long; zero disables idle GC.
	IdleTTL time.Duration
	// GCInterval is how often each shard sweeps for idle streams; default
	// IdleTTL/4 (bounded to [1s, 1min]).
	GCInterval time.Duration
	// MaxStreamsPerShard caps the streams a shard will host; new streams
	// beyond the cap are dropped and counted. Zero means unlimited.
	MaxStreamsPerShard int
	// OnDrift, when set, is invoked synchronously on the shard goroutine for
	// every drift (before the event is offered to the subscriptions). Unlike a
	// subscription it never drops: it is the lossless hook. It must be fast
	// and safe for concurrent invocation across shards.
	OnDrift func(Event)
	// Checkpoint enables detector-state persistence: periodic per-stream
	// snapshots, spill (instead of drop) on Evict and idle GC, transparent
	// rehydration when a checkpointed stream re-ingests, and a full flush on
	// Close. The zero value (no Store) disables checkpointing. See
	// CheckpointConfig.
	Checkpoint CheckpointConfig
	// Telemetry selects the latency-instrumentation level. The zero value
	// (telemetry.Full) times every monitor stage — shard queue-wait,
	// detector update, checkpoint save and store put — into log2 histograms
	// exported via Snapshot.Latency and WritePrometheus. telemetry.Off skips
	// them. Telemetry never changes detection output: drift decisions are
	// bit-identical at every level.
	Telemetry telemetry.Level
}

func (c *Config) withDefaults() error {
	if c.NewDetector == nil {
		base := c.Detector
		if base.Features < 1 || base.Classes < 2 {
			return fmt.Errorf("monitor: Detector needs Features >= 1 and Classes >= 2 (got %d/%d); set Detector or NewDetector", base.Features, base.Classes)
		}
		c.NewDetector = func(streamID string) (detectors.Detector, error) {
			cfg := base
			// Decorrelate per-stream randomness while keeping every stream
			// individually reproducible.
			cfg.Seed = base.Seed ^ int64(fnv1a(streamID))
			return core.NewDetector(cfg)
		}
		// Validate the template eagerly so misconfiguration surfaces at
		// construction, not on the first ingest.
		if _, err := c.NewDetector("monitor-probe"); err != nil {
			return err
		}
	}
	if c.Shards <= 0 {
		c.Shards = AutotuneShards()
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	c.Checkpoint.withDefaults()
	if c.IdleTTL > 0 && c.GCInterval <= 0 {
		c.GCInterval = c.IdleTTL / 4
		if c.GCInterval < time.Second {
			c.GCInterval = time.Second
		}
		if c.GCInterval > time.Minute {
			c.GCInterval = time.Minute
		}
	}
	return nil
}

// Event is one detected drift on one stream.
type Event struct {
	// StreamID identifies the drifted stream.
	StreamID string
	// Classes lists the classes the detector attributed the drift to
	// (nil for detectors that cannot attribute).
	Classes []int
	// Seq is the observation count of the stream at detection time.
	Seq uint64
	// At is the wall-clock detection time.
	At time.Time
	// Record is the drift flight record — the detector's recent per-class
	// reconstruction-error / trend / ADWIN-width samples leading into this
	// drift (see core.DriftRecord). Nil for detectors without a flight
	// recorder. The record is immutable; events may share it.
	Record *core.DriftRecord
}

// ErrClosed is returned by IngestBatch/TryIngestBatch/Evict/Subscribe after
// Close.
var ErrClosed = errors.New("monitor: closed")

// Monitor is the sharded multi-stream drift-detection service. All methods
// are safe for concurrent use.
type Monitor struct {
	cfg    Config
	shards []*shard
	start  time.Time

	mu        sync.RWMutex // guards closed against in-flight sends
	closed    bool
	closeDone chan struct{} // closed once Close has fully torn down
	wg        sync.WaitGroup

	// Event fan-out (Subscribe): every subscriber gets its own bounded
	// queue, so one slow consumer drops its own events without stalling
	// detection or starving the other subscribers.
	subMu       sync.RWMutex
	subs        map[*Subscription]struct{}
	subsClosed  bool
	subDropped  atomic.Uint64
	subsEvicted atomic.Uint64

	// Checkpoint plumbing (see checkpoint.go): shards serialize into pooled
	// buffers and enqueue; the single writer goroutine performs the Store
	// writes, keeping store latency off the shard loops.
	ckptCh      chan ckptMsg
	ckptWg      sync.WaitGroup
	ckptPool    sync.Pool
	checkpoints atomic.Uint64
	ckptErrors  atomic.Uint64
	rehydrated  atomic.Uint64

	// tele holds the monitor-side stage histograms; nil when
	// Config.Telemetry is Off.
	tele *monitorTele
	// lastDrift maps stream ID -> DriftReport of the stream's most recent
	// drift (written on the shard goroutine in tally, read by LastDrift).
	// Reports survive eviction: they are history, not stream state.
	lastDrift sync.Map
}

// monitorTele bundles the monitor's stage histograms.
type monitorTele struct {
	queueWait telemetry.Histogram // envelope push -> shard pop
	detector  telemetry.Histogram // one flush's Update/UpdateBatch run
	ckptSave  telemetry.Histogram // one stream's SaveState serialization
	ckptPut   telemetry.Histogram // one checkpoint Store.Put
}

// stages snapshots the histograms, sorted by stage name (the order every
// exporter relies on for deterministic output). Stages that never observed
// a sample are omitted — a monitor without a checkpoint store does not
// export empty checkpoint series.
func (t *monitorTele) stages() []telemetry.Stage {
	if t == nil {
		return nil
	}
	all := []telemetry.Stage{
		t.ckptPut.Load("checkpoint_put"),
		t.ckptSave.Load("checkpoint_save"),
		t.detector.Load("detector_update"),
		t.queueWait.Load("queue_wait"),
	}
	out := all[:0]
	for _, st := range all {
		if st.Count > 0 {
			out = append(out, st)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// New builds and starts a Monitor.
func New(cfg Config) (*Monitor, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	m := &Monitor{
		cfg:       cfg,
		closeDone: make(chan struct{}),
		subs:      make(map[*Subscription]struct{}),
		start:     time.Now(),
	}
	if cfg.Telemetry == telemetry.Full {
		m.tele = &monitorTele{}
	}
	if m.ckptEnabled() {
		m.ckptCh = make(chan ckptMsg, cfg.Checkpoint.QueueSize)
		m.ckptPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
		m.ckptWg.Add(1)
		go m.ckptWriter()
	}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		s := &shard{
			m:       m,
			in:      newRing(cfg.QueueSize),
			streams: make(map[string]*streamState),
			groups:  make(map[string]*obsGroup),
			// Pool of pointers: putting a *batchBuf into an interface is
			// allocation-free, unlike a value would be.
			pool:        sync.Pool{New: func() any { return new(batchBuf) }},
			ckptScratch: codec.NewBuffer(nil),
			snapshotted: make(map[string]struct{}),
		}
		if cfg.Detector.Classes > 0 {
			s.driftsByClass = make([]atomic.Uint64, cfg.Detector.Classes)
		}
		m.shards[i] = s
		m.wg.Add(1)
		go s.run()
	}
	return m, nil
}

// IngestBatch routes a block of observations for one stream through a single
// queue operation: all X and Scores slices are copied into one pooled slab,
// the block travels as one envelope (one ring slot instead of len(obs)),
// and the shard hands it to the stream's detector in one UpdateBatch call,
// creating the detector on first sight. A single observation is a block of
// one. Per-stream observation order is preserved. It blocks when the shard
// queue is full (backpressure) and returns ErrClosed after Close; callers
// may reuse every backing array the moment it returns. An empty block is a
// no-op.
func (m *Monitor) IngestBatch(streamID string, obs []detectors.Observation) error {
	_, err := m.ingest(streamID, obs, false)
	return err
}

// TryIngestBatch is IngestBatch without backpressure: when the shard queue
// is full the whole block is dropped, its observations counted as dropped,
// and false is returned.
func (m *Monitor) TryIngestBatch(streamID string, obs []detectors.Observation) (bool, error) {
	return m.ingest(streamID, obs, true)
}

// ingest is the body of both ingest verbs; try selects dropping over
// blocking on a full shard queue.
func (m *Monitor) ingest(streamID string, obs []detectors.Observation, try bool) (bool, error) {
	s := m.shards[ShardFor(streamID, len(m.shards))]
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return false, ErrClosed
	}
	if len(obs) == 0 {
		return true, nil
	}
	env := envelope{op: opIngest, id: streamID, bat: s.copyBatch(obs)}
	if s.send(env, len(obs), try) {
		return true, nil
	}
	s.pool.Put(env.bat)
	s.dropped.Add(uint64(len(obs)))
	return false, nil
}

// Evict asynchronously removes a stream and its detector from memory,
// flushing the stream's queued observations first. With checkpointing
// enabled the detector's state is spilled to the Store before removal, so a
// later ingest for the same stream resumes the trained detector instead of
// starting fresh; the Store entry is retained. Evicting a stream that is not
// currently resident on its shard (never ingested, already evicted, or
// already collected by idle GC) is a documented no-op that is counted in
// Snapshot.StreamErrors — the caller's view of the stream population has
// drifted from the monitor's, which is worth surfacing.
func (m *Monitor) Evict(streamID string) error {
	s := m.shards[ShardFor(streamID, len(m.shards))]
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	s.in.push(envelope{op: opEvict, id: streamID})
	return nil
}

// Subscription is one subscriber's private, bounded drift-event queue (see
// Monitor.Subscribe). Events that arrive while the queue is full are dropped
// for this subscriber only and counted in Dropped.
type Subscription struct {
	m       *Monitor
	ch      chan Event
	dropped atomic.Uint64
	evicted atomic.Bool
	once    sync.Once
}

// Events returns the subscription's event channel. It is closed by
// Subscription.Close or by Monitor.Close after the shards drain, so a range
// loop terminates cleanly either way.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped returns how many events this subscriber lost to a full queue.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Close detaches the subscription from the monitor and closes its channel.
// It is idempotent and safe to call concurrently with Monitor.Close.
func (s *Subscription) Close() { s.close(false) }

// Evicted reports whether the monitor evicted this subscription for falling
// behind (see Config.SubscriberEvictDrops). Meaningful once the Events
// channel has closed.
func (s *Subscription) Evicted() bool { return s.evicted.Load() }

// close tears the subscription down; evicted marks a monitor-initiated
// eviction. The once makes user Close and eviction race safely — whichever
// runs first wins, and only a winning eviction is counted.
func (s *Subscription) close(evicted bool) {
	s.once.Do(func() {
		if evicted {
			s.evicted.Store(true)
			s.m.subsEvicted.Add(1)
		}
		s.m.subMu.Lock()
		delete(s.m.subs, s)
		close(s.ch)
		s.m.subMu.Unlock()
	})
}

// Subscribe registers a new drift-event subscriber with its own queue of the
// given capacity (<= 0 selects Config.EventBuffer). Every subscriber
// receives every event published after it subscribed; a subscriber that
// falls behind drops its own events (counted per subscription and in
// Snapshot.SubscriberDropped) without affecting anyone else — the fan-out
// shape the network server needs, one subscription per subscribed
// connection. Returns ErrClosed after Close.
func (m *Monitor) Subscribe(buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = m.cfg.EventBuffer
	}
	m.subMu.Lock()
	defer m.subMu.Unlock()
	if m.subsClosed {
		return nil, ErrClosed
	}
	sub := &Subscription{m: m, ch: make(chan Event, buffer)}
	m.subs[sub] = struct{}{}
	return sub, nil
}

// Close stops ingestion, drains every shard queue, waits for the workers to
// exit, and closes every subscription. It is idempotent, and a concurrent
// second Close blocks until the teardown is complete — callers never
// observe a Close that returned while events were still being delivered.
func (m *Monitor) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.closeDone
		return
	}
	m.closed = true
	m.mu.Unlock()
	// closed is set and every in-flight producer held the read lock, so the
	// opClose envelope below is the last push each ring will ever see: the
	// worker drains everything queued before it, then exits.
	for _, s := range m.shards {
		s.in.push(envelope{op: opClose})
	}
	m.wg.Wait()
	if m.ckptEnabled() {
		// Shards have flushed their final snapshots into the queue; drain it
		// to the Store before reporting closed, so a successor monitor
		// sharing the Store rehydrates the newest state.
		close(m.ckptCh)
		m.ckptWg.Wait()
	}
	// No shard can publish anymore; close the fan-out so subscriber range
	// loops terminate, and refuse new subscriptions from here on.
	m.subMu.Lock()
	m.subsClosed = true
	subs := make([]*Subscription, 0, len(m.subs))
	for sub := range m.subs {
		subs = append(subs, sub)
	}
	m.subMu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
	close(m.closeDone)
}

// FlushCheckpoints processes everything queued ahead of it and flushes every
// dirty stream's detector state to the checkpoint Store, returning once the
// writes have durably reached the Store. Because the flush request travels
// each shard's queue like any observation, it doubles as a full processing
// barrier: every IngestBatch/TryIngestBatch/Evict that happened-before the call has
// been applied when it returns, with or without checkpointing configured
// (without a Store it is only the barrier). Returns ErrClosed after Close
// (which performs the same flush itself).
func (m *Monitor) FlushCheckpoints() error {
	// The read lock is held for the whole flush: it keeps Close (write lock)
	// from closing the shard queues or the checkpoint writer mid-flush, and
	// nothing below acquires m.mu, so there is no lock-order risk.
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	dones := make([]chan struct{}, len(m.shards))
	for i, s := range m.shards {
		dones[i] = make(chan struct{})
		s.in.push(envelope{op: opFlush, done: dones[i]})
	}
	for _, done := range dones {
		<-done
	}
	if m.ckptEnabled() {
		// The shards have enqueued their snapshots; fence the writer so they
		// have reached the Store before reporting done.
		m.ckptBarrier()
	}
	return nil
}

// publish hands a drift event to OnDrift and offers it to every
// subscription, dropping per subscriber when its queue is full so shards
// never stall on a slow consumer.
func (m *Monitor) publish(ev Event) {
	if m.cfg.OnDrift != nil {
		m.cfg.OnDrift(ev)
	}
	limit := uint64(m.cfg.SubscriberEvictDrops)
	var evict []*Subscription
	m.subMu.RLock()
	for sub := range m.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			m.subDropped.Add(1)
			if limit > 0 && sub.dropped.Load() >= limit {
				// Closing takes the write lock; collect now, evict below.
				evict = append(evict, sub)
			}
		}
	}
	m.subMu.RUnlock()
	for _, sub := range evict {
		sub.close(true)
	}
}

// Snapshot is a point-in-time aggregate view of the monitor.
type Snapshot struct {
	// Shards is the worker count; Streams the live stream count.
	Shards, Streams int
	// Ingested / Drifts / Warnings count processed observations and
	// detector signals since start.
	Ingested, Drifts, Warnings uint64
	// DriftsByClass breaks drifts down by attributed class (nil when the
	// class count is unknown, i.e. a custom factory without Detector.Classes).
	DriftsByClass []uint64
	// Dropped counts observations dropped by TryIngestBatch on full shard
	// queues; IdleEvicted counts idle-GC evictions; StreamErrors
	// counts observations rejected by detector-factory failures and
	// per-shard stream-cap limits (MaxStreamsPerShard), plus Evict calls for
	// streams that were not resident (see Evict).
	Dropped, IdleEvicted, StreamErrors uint64
	// Received counts observations accepted into shard ring queues (every
	// IngestBatch plus successful TryIngestBatch calls); Rejected counts
	// received observations refused at processing time (factory failures and
	// stream caps — the observation portion of StreamErrors); Queued is the
	// number received but not yet resolved, sampled across the shard rings.
	// Conservation holds at any quiescent point (e.g. after the
	// FlushCheckpoints barrier): Received == Ingested + Rejected + Queued,
	// with Queued == 0.
	Received, Rejected, Queued uint64
	// QueueCap is each shard's ring capacity in envelopes (QueueSize rounded
	// up to a power of two); QueueHighWater is the largest per-shard envelope
	// occupancy any shard worker has observed since the last FlushCheckpoints
	// barrier — together they are the saturation signal Monitor.TuneAdvice
	// reads. The windowed reading (each flush barrier resets the mark to the
	// occupancy it observes) keeps rebalance and tuning decisions off stale
	// peaks: a queue that saturated once at startup reads shallow again after
	// the next flush, rather than forever.
	QueueCap       int
	QueueHighWater uint64
	// Checkpoints counts snapshots written to the checkpoint Store;
	// CheckpointErrors counts failed serializations, Store errors, skipped
	// snapshots on a full write queue, and rehydration failures; Rehydrated
	// counts streams restored from serialized state — Store reads on first
	// ingest and migration imports (ImportStream), which restore the same
	// envelope over the wire. Checkpoints/CheckpointErrors are zero without
	// Config.Checkpoint; Rehydrated can still move via imports.
	Checkpoints, CheckpointErrors, Rehydrated uint64
	// Subscribers is the number of live Subscribe fan-out queues;
	// SubscriberDropped counts events dropped across all subscribers
	// (including since-closed ones) on full per-subscriber queues;
	// SubscribersEvicted counts subscriptions the monitor closed for
	// exceeding Config.SubscriberEvictDrops.
	Subscribers        int
	SubscriberDropped  uint64
	SubscribersEvicted uint64
	// Wire-path counters, owned by the network server (internal/server) and
	// overlaid onto its Snapshot reply and /metrics payload; always zero on
	// an in-process monitor. InFlightHighWater is the largest number of
	// pipelined requests any connection has had in flight at once;
	// RepliesCoalesced counts reply frames that rode a previous frame's
	// socket write (syscalls saved by the coalescing reply writer); Shedded
	// counts blocking ingests refused with Busy by overload shedding
	// (server.Config.ShedHighWater); DedupHits counts retried ingests
	// acknowledged without re-ingesting by the exactly-once dedup window.
	InFlightHighWater uint64
	RepliesCoalesced  uint64
	Shedded           uint64
	DedupHits         uint64
	// ShardStreams / ShardIngested expose the per-shard balance.
	ShardStreams  []int
	ShardIngested []uint64
	// Uptime is time since New; InstancesPerSec is Ingested / Uptime.
	Uptime          time.Duration
	InstancesPerSec float64
	// Latency holds the stage latency histograms (telemetry.Stage: log2
	// buckets plus p50/p95/p99), sorted by stage name. Monitor stages are
	// queue_wait, detector_update, checkpoint_save, checkpoint_put; the
	// network server overlays its serve_* stages onto its Snapshot reply.
	// Empty when Config.Telemetry is Off. MergeSnapshots merges
	// same-named stages bucket-wise, so fleet views keep true quantiles.
	Latency []telemetry.Stage
}

// Snapshot aggregates the per-shard statistics. It is cheap (atomic reads)
// and safe to call at any time, including after Close.
func (m *Monitor) Snapshot() Snapshot {
	sn := Snapshot{
		Shards:             len(m.shards),
		Checkpoints:        m.checkpoints.Load(),
		CheckpointErrors:   m.ckptErrors.Load(),
		Rehydrated:         m.rehydrated.Load(),
		SubscriberDropped:  m.subDropped.Load(),
		SubscribersEvicted: m.subsEvicted.Load(),
		Uptime:             time.Since(m.start),
		ShardStreams:       make([]int, len(m.shards)),
		ShardIngested:      make([]uint64, len(m.shards)),
	}
	m.subMu.RLock()
	sn.Subscribers = len(m.subs)
	m.subMu.RUnlock()
	if m.cfg.Detector.Classes > 0 {
		sn.DriftsByClass = make([]uint64, m.cfg.Detector.Classes)
	}
	for i, s := range m.shards {
		sn.ShardStreams[i] = int(s.streamCount.Load())
		sn.ShardIngested[i] = s.ingested.Load()
		sn.Streams += sn.ShardStreams[i]
		sn.Ingested += sn.ShardIngested[i]
		sn.Drifts += s.drifts.Load()
		sn.Warnings += s.warnings.Load()
		sn.Dropped += s.dropped.Load()
		sn.IdleEvicted += s.idleEvicted.Load()
		sn.StreamErrors += s.streamErrors.Load()
		sn.Received += s.received.Load()
		sn.Rejected += s.rejected.Load()
		// queued can dip negative transiently (a concurrent drain's decrement
		// racing a producer's increment); clamp per shard.
		if q := s.queued.Load(); q > 0 {
			sn.Queued += uint64(q)
		}
		sn.QueueCap = s.in.cap()
		if hw := s.in.highWater.Load(); hw > sn.QueueHighWater {
			sn.QueueHighWater = hw
		}
		for k := range sn.DriftsByClass {
			sn.DriftsByClass[k] += s.driftsByClass[k].Load()
		}
	}
	if secs := sn.Uptime.Seconds(); secs > 0 {
		sn.InstancesPerSec = float64(sn.Ingested) / secs
	}
	sn.Latency = m.tele.stages()
	return sn
}

// QueuePressure reports the current ring occupancy and capacity of the
// shard that owns streamID — the saturation signal the network server's
// overload shedding reads before accepting more blocking work for that
// stream. Occupancy is in envelopes (an IngestBatch block is one envelope),
// sampled from the same conservation counter Snapshot.Queued aggregates; it
// is exact at quiescence and monotonically consistent under concurrency.
func (m *Monitor) QueuePressure(streamID string) (queued uint64, capacity int) {
	s := m.shards[ShardFor(streamID, len(m.shards))]
	if q := s.queued.Load(); q > 0 {
		queued = uint64(q)
	}
	return queued, s.in.cap()
}

// Streams returns the number of live streams across all shards.
func (m *Monitor) Streams() int {
	n := 0
	for _, s := range m.shards {
		n += int(s.streamCount.Load())
	}
	return n
}

type opcode uint8

const (
	opIngest opcode = iota
	opEvict
	// opFlush is a barrier: the shard applies everything queued ahead of it,
	// snapshots its dirty streams (blocking, when checkpointing is on), and
	// closes the envelope's done channel. See Monitor.FlushCheckpoints.
	opFlush
	// opClose is the shutdown sentinel Close pushes after refusing new
	// producers: necessarily the last envelope on the ring, so the worker
	// drains everything ahead of it and exits.
	opClose
	// opExport / opImport / opList are the stream-migration operations (see
	// migrate.go): export serializes a stream's detector into a checkpoint
	// envelope frame and removes the stream (spilling first, like Evict);
	// import installs a previously exported frame as a new resident stream;
	// list collects the shard's resident stream IDs. All three travel the
	// shard queue like observations, so they serialize cleanly against the
	// stream's in-flight ingests.
	opExport
	opImport
	opList
)

// batchBuf is the pooled carrier of one ingested block: the copied
// observations, whose X and Scores slices view slab — one allocation-free
// block per queue hop instead of one pooled buffer per observation.
type batchBuf struct {
	obs  []detectors.Observation
	slab []float64
}

// envelope is one message on a shard's queue. bat owns the pooled copies of
// the observations (nil for opEvict/opFlush) and is returned to the shard's
// pool once the detector consumed the block; done is the opFlush
// acknowledgement channel (nil otherwise); xfer carries the request and
// result of a migration operation (opExport/opImport/opList only).
type envelope struct {
	op   opcode
	id   string
	bat  *batchBuf
	done chan struct{}
	xfer *xferOp
	// at is the telemetry clock reading when the envelope was pushed
	// (stamp-at-push), read at pop for the queue_wait histogram; zero when
	// monitor telemetry is off. Stamping at push rather than timing the pop
	// loop is what makes the number mean "how long did work sit in the
	// ring", including the time a full ring blocked the producer's view of
	// progress.
	at int64
}

// streamState is one stream's detector plus bookkeeping; owned exclusively
// by its shard goroutine.
type streamState struct {
	det      detectors.Detector
	seq      uint64
	lastSeen time.Time
	// dirty marks traffic since the last snapshot; cleared when a snapshot
	// of this stream is queued to the checkpoint writer.
	dirty bool
}

// obsGroup accumulates one stream's observations across the envelopes of a
// micro-batch, keeping the owning batchBufs alive until the flush.
type obsGroup struct {
	obs  []detectors.Observation
	bats []*batchBuf
}

// microBatch bounds how many envelopes one shard wakeup drains before
// flushing. It trades per-observation channel/dispatch overhead against
// event latency: 128 envelopes is far below queue capacity, so a drift is
// never delayed by more than one flush of work already queued anyway.
const microBatch = 128

// shard is one worker: a goroutine draining a ring buffer of observations
// for the streams consistently hashed onto it. Every wakeup pops the ring in
// a micro-batch, groups the observations per stream, and feeds each stream's
// run to its detector in one UpdateBatch call. All mutable per-stream state
// is confined to the goroutine; only the atomic counters are shared.
type shard struct {
	m       *Monitor
	in      *ring
	streams map[string]*streamState
	pool    sync.Pool // *batchBuf slabs carrying copied observations

	// Micro-batch scratch, reused across wakeups so the steady-state drain
	// allocates nothing: per-stream groups (map + first-appearance order +
	// freelist) and the per-flush detector states.
	groups    map[string]*obsGroup
	order     []string
	groupFree []*obsGroup
	states    []detectors.State

	// Checkpoint scratch (checkpoint.go): the envelope payload builder and
	// the framed snapshot, both reused across snapshots so the periodic
	// cadence allocates nothing beyond the pooled write buffers; snapshotted
	// remembers which stream IDs this shard has ever enqueued a snapshot
	// for, so rehydration only pays the write-queue barrier when a write of
	// that stream could actually be in flight.
	ckptScratch *codec.Buffer
	ckptFrame   []byte
	snapshotted map[string]struct{}

	streamCount   atomic.Int64
	ingested      atomic.Uint64
	drifts        atomic.Uint64
	warnings      atomic.Uint64
	dropped       atomic.Uint64
	idleEvicted   atomic.Uint64
	streamErrors  atomic.Uint64
	driftsByClass []atomic.Uint64

	// Conservation counters (see Snapshot.Received): received and queued are
	// adjusted by producers at push time; queued is drawn down and rejected
	// raised on the shard goroutine as observations resolve. queued is
	// signed because a Try* producer's increment races the drain's decrement.
	received atomic.Uint64
	rejected atomic.Uint64
	queued   atomic.Int64
}

// send pushes an envelope carrying n observations. On a full ring it blocks
// (backpressure), or with try set rolls the counters back and returns false
// (the caller counts the drop). Counters move before the push so a
// concurrent Snapshot never sees queued dip below zero on the blocking path.
func (s *shard) send(env envelope, n int, try bool) bool {
	if s.m.tele != nil {
		env.at = telemetry.Now()
	}
	s.received.Add(uint64(n))
	s.queued.Add(int64(n))
	if !try {
		s.in.push(env)
		return true
	}
	if s.in.tryPush(env) {
		return true
	}
	s.received.Add(-uint64(n))
	s.queued.Add(int64(-n))
	return false
}

// appendObs copies o's X (and Scores, when present) onto slab and returns
// the rewritten observation whose slices view slab. Callers presize slab so
// the appends never relocate earlier observations' views.
func appendObs(slab []float64, o detectors.Observation) ([]float64, detectors.Observation) {
	start := len(slab)
	slab = append(slab, o.X...)
	o.X = slab[start:len(slab):len(slab)]
	if o.Scores != nil {
		start = len(slab)
		slab = append(slab, o.Scores...)
		o.Scores = slab[start:len(slab):len(slab)]
	}
	return slab, o
}

// copyBatch copies a block of observations into one pooled slab.
func (s *shard) copyBatch(obs []detectors.Observation) *batchBuf {
	bat := s.pool.Get().(*batchBuf)
	need := 0
	for i := range obs {
		need += len(obs[i].X) + len(obs[i].Scores)
	}
	if cap(bat.slab) < need {
		bat.slab = make([]float64, 0, need)
	}
	bat.slab = bat.slab[:0]
	if cap(bat.obs) < len(obs) {
		bat.obs = make([]detectors.Observation, 0, len(obs))
	}
	bat.obs = bat.obs[:len(obs)]
	for i := range obs {
		bat.slab, bat.obs[i] = appendObs(bat.slab, obs[i])
	}
	return bat
}

// Adaptive spin bounds for the worker's wait-for-work loop: the budget
// doubles whenever spinning paid off (work arrived before parking) and
// halves after a futile spin, so a loaded shard burns a few yields instead
// of a futex round-trip while an idle one converges to parking almost
// immediately.
const (
	spinMin     = 4
	spinDefault = 32
	spinMax     = 256
)

func (s *shard) run() {
	defer s.m.wg.Done()
	// Registered after wg.Done, so it runs first (LIFO): the close-time
	// state flush reaches the checkpoint queue before Close's wg.Wait
	// releases and the queue is drained.
	defer s.finalCheckpoint()
	var gcC <-chan time.Time
	if s.m.cfg.IdleTTL > 0 {
		t := time.NewTicker(s.m.cfg.GCInterval)
		defer t.Stop()
		gcC = t.C
	}
	var ckptC <-chan time.Time
	if s.m.ckptEnabled() {
		t := time.NewTicker(s.m.cfg.Checkpoint.Interval)
		defer t.Stop()
		ckptC = t.C
	}
	pending := make([]envelope, microBatch)
	spins := spinDefault
	for {
		// Pop whatever is already queued (bounded) so the per-stream
		// grouping in process amortizes detector dispatch over the whole
		// micro-batch.
		if n := s.in.popBatch(pending); n > 0 {
			if s.process(pending[:n]) {
				return // opClose drained
			}
			// Give the maintenance tickers a chance between drains without
			// ever blocking the hot loop (nil channels never fire).
			select {
			case <-gcC:
				s.gcIdle()
			case <-ckptC:
				s.snapshotDirty()
			default:
			}
			continue
		}
		// Ring empty: spin briefly — under load the next envelope lands
		// within microseconds and parking would cost two scheduler hops.
		if s.spinForWork(&spins) {
			continue
		}
		// Park. The flag-then-recheck order pairs with the producer's
		// publish-then-check-flag order (see ring.prepark): one side always
		// sees the other.
		s.in.prepark()
		if s.in.occupancy() > 0 {
			s.in.unpark()
			continue
		}
		select {
		case <-s.in.wakeCh():
		case <-gcC:
			s.gcIdle()
		case <-ckptC:
			s.snapshotDirty()
		}
		s.in.unpark()
	}
}

// spinForWork yields up to the adaptive budget waiting for the ring to go
// non-empty, growing the budget on success and shrinking it on a futile
// spin. Returns true when work arrived.
func (s *shard) spinForWork(spins *int) bool {
	for i := 0; i < *spins; i++ {
		if s.in.occupancy() > 0 {
			if *spins < spinMax {
				*spins *= 2
			}
			return true
		}
		runtime.Gosched()
	}
	if *spins > spinMin {
		*spins /= 2
	}
	return false
}

// process groups a drained micro-batch per stream and flushes each stream's
// run through its detector once, returning true when the batch contained the
// opClose sentinel. Per-stream observation order is preserved: observations
// accumulate in arrival order and an Evict flushes the stream's queued
// observations before removing it.
func (s *shard) process(pending []envelope) (closing bool) {
	if t := s.m.tele; t != nil {
		// One clock read per micro-batch: queue-wait is dominated by ring
		// residency, not the sub-microsecond drain spread.
		now := telemetry.Now()
		for i := range pending {
			if at := pending[i].at; at > 0 {
				t.queueWait.Observe(now - at)
			}
		}
	}
	var flushDones []chan struct{}
	var listOps []*xferOp
	for _, env := range pending {
		switch env.op {
		case opClose:
			// Necessarily the last envelope Close will ever push; finish the
			// batch (it can only contain earlier envelopes) and report done.
			closing = true
		case opFlush:
			// Acknowledged after the group flush below, so every envelope
			// queued before the flush has been applied; observations later in
			// this same micro-batch may also be included, which only
			// strengthens the "everything before" guarantee.
			flushDones = append(flushDones, env.done)
		case opEvict:
			// Flush the stream's queued observations first (an empty group —
			// already flushed earlier in this micro-batch — must not be
			// flushed again: flush would materialize a fresh stream).
			if g, ok := s.groups[env.id]; ok && len(g.obs) > 0 {
				s.flush(env.id, g)
			}
			if st, ok := s.streams[env.id]; ok {
				// Spill instead of drop: with checkpointing enabled the
				// trained detector survives in the Store and a later ingest
				// rehydrates it.
				s.spill(env.id, st)
				delete(s.streams, env.id)
				s.streamCount.Add(-1)
			} else {
				// Evicting a non-resident stream is a no-op, but it means the
				// caller's stream bookkeeping disagrees with the monitor's —
				// counted so the disagreement is visible (see Evict).
				s.streamErrors.Add(1)
			}
		case opExport:
			// Like Evict: apply the stream's queued observations first, so
			// the exported state reflects everything sent before the export.
			if g, ok := s.groups[env.id]; ok && len(g.obs) > 0 {
				s.flush(env.id, g)
			}
			s.exportStream(env.id, env.xfer)
		case opImport:
			s.importStream(env.id, env.xfer)
		case opList:
			// Answered after the group flush below, so streams whose first
			// observations are earlier in this micro-batch are included.
			listOps = append(listOps, env.xfer)
		case opIngest:
			g, ok := s.groups[env.id]
			if !ok {
				g = s.getGroup()
				s.groups[env.id] = g
				s.order = append(s.order, env.id)
			}
			g.obs = append(g.obs, env.bat.obs...)
			g.bats = append(g.bats, env.bat)
		}
	}
	for _, id := range s.order {
		g := s.groups[id]
		if len(g.obs) > 0 {
			s.flush(id, g)
		}
		delete(s.groups, id)
		s.putGroup(g)
	}
	s.order = s.order[:0]
	for _, x := range listOps {
		for id := range s.streams {
			x.ids = append(x.ids, id)
		}
		close(x.done)
	}
	if len(flushDones) > 0 {
		// Explicit flush: snapshot every dirty stream with a blocking
		// enqueue — unlike the periodic cadence, a requested flush must not
		// skip streams on a momentarily full write queue.
		if s.m.ckptEnabled() {
			for id, st := range s.streams {
				if st.dirty {
					s.snapshotStream(id, st, true)
				}
			}
		}
		// The flush barrier also starts a fresh queue high-water window (see
		// Snapshot.QueueHighWater): everything queued ahead of it has been
		// applied, so the pre-barrier peak is stale for tuning decisions.
		s.in.resetHighWater()
		for _, done := range flushDones {
			close(done)
		}
	}
	return closing
}

func (s *shard) getGroup() *obsGroup {
	if n := len(s.groupFree); n > 0 {
		g := s.groupFree[n-1]
		s.groupFree = s.groupFree[:n-1]
		return g
	}
	return &obsGroup{}
}

func (s *shard) putGroup(g *obsGroup) {
	s.groupFree = append(s.groupFree, g)
}

// release returns a flushed group's batchBufs to the pool and resets it for
// reuse within the same micro-batch (an Evict may flush mid-batch).
func (s *shard) release(g *obsGroup) {
	for i, bat := range g.bats {
		s.pool.Put(bat)
		g.bats[i] = nil
	}
	g.bats = g.bats[:0]
	g.obs = g.obs[:0]
}

// flush runs one stream's accumulated observations through its detector,
// creating the detector on first sight, and records states and drift events.
func (s *shard) flush(id string, g *obsGroup) {
	n := len(g.obs)
	st, ok := s.streams[id]
	if !ok {
		if max := s.m.cfg.MaxStreamsPerShard; max > 0 && len(s.streams) >= max {
			s.reject(n)
			s.release(g)
			return
		}
		det, err := s.m.cfg.NewDetector(id)
		if err != nil {
			s.reject(n)
			s.release(g)
			return
		}
		st = &streamState{det: det}
		// A checkpointed stream resumes its trained detector and sequence
		// counter; a genuinely new stream starts at zero.
		st.seq = s.rehydrate(id, det)
		s.streams[id] = st
		s.streamCount.Add(1)
	}
	now := time.Now()
	st.lastSeen = now
	var detStart int64
	if s.m.tele != nil {
		detStart = telemetry.Now()
	}
	if bd, ok := st.det.(detectors.BatchDetector); ok {
		if cap(s.states) < n {
			s.states = make([]detectors.State, n)
		}
		states := s.states[:n]
		bd.UpdateBatch(g.obs, states)
		if t := s.m.tele; t != nil {
			t.detector.Observe(telemetry.Now() - detStart)
		}
		// Batched attribution is per block: DriftClasses after UpdateBatch
		// is the union over the block's drifting mini-batches, so every
		// drift event of this flush carries the same class list.
		var classes []int
		if attr, ok := st.det.(detectors.ClassAttributor); ok {
			classes = attr.DriftClasses()
		}
		for _, state := range states {
			st.seq++
			s.tally(id, st, state, classes, now)
		}
	} else {
		// Legacy detectors keep exact per-observation attribution: classes
		// are read immediately after the Update that signalled the drift.
		for i := range g.obs {
			st.seq++
			state := st.det.Update(g.obs[i])
			var classes []int
			if state == detectors.Drift {
				if attr, ok := st.det.(detectors.ClassAttributor); ok {
					classes = attr.DriftClasses()
				}
			}
			s.tally(id, st, state, classes, now)
		}
		if t := s.m.tele; t != nil {
			t.detector.Observe(telemetry.Now() - detStart)
		}
	}
	s.ingested.Add(uint64(n))
	s.queued.Add(int64(-n))
	st.dirty = true
	s.release(g)
}

// reject resolves n received-but-unprocessable observations (factory
// failure, stream cap): they leave the queue into Rejected, and StreamErrors
// keeps its historical per-observation accounting.
func (s *shard) reject(n int) {
	s.streamErrors.Add(uint64(n))
	s.rejected.Add(uint64(n))
	s.queued.Add(int64(-n))
}

// tally records one observation's detector state and publishes drift events.
func (s *shard) tally(id string, st *streamState, state detectors.State, classes []int, now time.Time) {
	switch state {
	case detectors.Warning:
		s.warnings.Add(1)
	case detectors.Drift:
		s.drifts.Add(1)
		ev := Event{StreamID: id, Seq: st.seq, At: now}
		ev.Classes = append(ev.Classes, classes...)
		// Attach the flight record when the detector keeps one. A batched
		// flush with several drifting mini-batches attaches the latest
		// record to each of its events; records are immutable, so sharing
		// the pointer is safe.
		if rec, ok := st.det.(driftRecorder); ok {
			ev.Record = rec.LastDriftRecord()
		}
		for _, k := range ev.Classes {
			if k >= 0 && k < len(s.driftsByClass) {
				s.driftsByClass[k].Add(1)
			}
		}
		s.m.lastDrift.Store(id, DriftReport{
			StreamID: id, Seq: st.seq, At: now,
			Classes: ev.Classes, Record: ev.Record,
		})
		s.m.publish(ev)
	}
}

// driftRecorder is the optional detector capability behind Event.Record
// (implemented by core.Detector).
type driftRecorder interface {
	LastDriftRecord() *core.DriftRecord
}

// DriftReport is the retrievable form of a stream's most recent drift: the
// event coordinates plus the flight record (nil for detectors without a
// recorder). Served over the wire by the LastDrift request.
type DriftReport struct {
	StreamID string
	Seq      uint64
	At       time.Time
	Classes  []int
	Record   *core.DriftRecord
}

// LastDrift returns the report of streamID's most recent drift, or false if
// the stream has never drifted in this process. Reports survive stream
// eviction (they describe history, not live state) but are process-local:
// they are not checkpointed and do not migrate.
func (m *Monitor) LastDrift(streamID string) (DriftReport, bool) {
	v, ok := m.lastDrift.Load(streamID)
	if !ok {
		return DriftReport{}, false
	}
	return v.(DriftReport), true
}

// gcIdle evicts streams idle for longer than IdleTTL, spilling their state
// to the checkpoint store first (so an idle stream that later wakes up
// resumes its trained detector).
func (s *shard) gcIdle() {
	cutoff := time.Now().Add(-s.m.cfg.IdleTTL)
	for id, st := range s.streams {
		if st.lastSeen.Before(cutoff) {
			s.spill(id, st)
			delete(s.streams, id)
			s.streamCount.Add(-1)
			s.idleEvicted.Add(1)
		}
	}
}
