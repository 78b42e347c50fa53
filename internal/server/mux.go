package server

import (
	"fmt"

	"rbmim/internal/codec"
	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/telemetry"
)

// ClientPool fans many logical producers over a fixed set of pipelined
// connections. Streams are routed to connections by the same consistent
// hash the monitor uses for shard placement (monitor.ShardFor), which gives
// the two properties that make a pool safe to put in front of the monitor:
//
//   - per-stream ordering: all of a stream's requests travel one connection,
//     and the server handles one connection's requests in order, so a
//     stream's observations reach its shard in send order — the pool is
//     just another producer as far as the monitor's ordering-equivalence
//     guarantee is concerned;
//   - stable placement: growing or shrinking the pool moves only ~1/n of
//     the streams to a different connection.
//
// N producer goroutines sharing one pool therefore look to the server like
// K pipelined clients, multiplexing N ways of traffic into K×window
// in-flight requests — connections stop being the unit of concurrency.
//
// The pool's connections share one session id and one per-stream sequence
// table, so the server sees the pool as a single exactly-once producer.
// That makes failover safe: when a connection dies permanently (its own
// RetryPolicy exhausted, or no policy at all), routing deterministically
// probes forward to the next live connection — every pool member re-homes
// the same streams to the same survivor — and a synchronous ingest whose
// connection died mid-call is resent there with its original sequence
// number, so a request the dead connection did manage to deliver is acked,
// not re-applied. All methods are safe for concurrent use.
type ClientPool struct {
	clients []*Client
	session uint64
	seqs    *seqTable
}

// DialPool opens conns pipelined connections to addr, each with the given
// in-flight window and no retry policy (see DialWindow; conns < 1 and
// window < 1 select 1).
func DialPool(addr string, conns, window int) (*ClientPool, error) {
	return DialPoolRetry(addr, conns, window, RetryPolicy{})
}

// DialPoolRetry is DialPool with a retry policy applied to every
// connection (see DialRetry).
func DialPoolRetry(addr string, conns, window int, policy RetryPolicy) (*ClientPool, error) {
	if conns < 1 {
		conns = 1
	}
	p := &ClientPool{
		clients: make([]*Client, conns),
		session: newSessionID(),
		seqs:    newSeqTable(),
	}
	for i := range p.clients {
		c, err := DialRetry(addr, window, policy)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("server: dialing pool connection %d: %w", i, err)
		}
		// Re-home the fresh client onto the pool's shared exactly-once
		// identity before any request can be issued on it.
		c.session = p.session
		c.seqs = p.seqs
		p.clients[i] = c
	}
	return p, nil
}

// Conns returns the pool's connection count.
func (p *ClientPool) Conns() int { return len(p.clients) }

// Reconnects sums the reconnect counts across the pool's connections.
func (p *ClientPool) Reconnects() uint64 {
	var n uint64
	for _, c := range p.clients {
		n += c.Reconnects()
	}
	return n
}

// conn returns the connection that owns streamID: its home connection by
// consistent hash, or — when the home is permanently dead — the first live
// connection probing forward from it. The probe order is a pure function of
// (stream, set of dead connections), so every goroutine re-homes a stream
// identically and its requests keep traveling one connection, preserving
// per-stream ordering. With every connection dead, the home is returned and
// the call surfaces its sticky error.
func (p *ClientPool) conn(streamID string) *Client {
	n := len(p.clients)
	home := monitor.ShardFor(streamID, n)
	for i := 0; i < n; i++ {
		if c := p.clients[(home+i)%n]; !c.Dead() {
			return c
		}
	}
	return p.clients[home]
}

// failedOver reports whether a synchronous call that failed on c should be
// resent (same seq) on a re-homed connection: c is permanently dead, the
// failure is the death rather than the request's own doing, and the pool
// has somewhere else to send it.
func (p *ClientPool) failedOver(c *Client, streamID string, err error) (*Client, bool) {
	if err == nil || !c.Dead() {
		return nil, false
	}
	switch Classify(err) {
	case ClassTransport, ClassProtocol, ClassClosed:
		// ClassClosed from a dead-but-not-pool-closed client is its sticky
		// error surfacing; a pool-wide Close leaves no live conn to probe.
	default:
		return nil, false
	}
	next := p.conn(streamID)
	if next == c || next.Dead() {
		return nil, false
	}
	return next, true
}

// Ingest routes one observation over the stream's connection and waits for
// the ack (see Client.Ingest). If the connection dies permanently mid-call,
// the request is resent on the stream's re-homed connection with its
// original sequence number — exactly once either way.
func (p *ClientPool) Ingest(streamID string, o detectors.Observation) error {
	one := [1]detectors.Observation{o}
	return p.ingest(codec.KindWireIngest, streamID, one[:])
}

// IngestAsync routes one observation over the stream's connection without
// waiting (see Client.IngestAsync). Async requests do not fail over — the
// Pending surfaces the dead connection's error and the caller decides.
func (p *ClientPool) IngestAsync(streamID string, o detectors.Observation) (Pending, error) {
	return p.conn(streamID).IngestAsync(streamID, o)
}

// IngestBatch routes a block over the stream's connection and waits for the
// ack (see Client.IngestBatch), failing over like Ingest.
func (p *ClientPool) IngestBatch(streamID string, obs []detectors.Observation) error {
	return p.ingest(codec.KindWireIngestBatch, streamID, obs)
}

// ingest is the synchronous ingest with failover behind Ingest and
// IngestBatch.
func (p *ClientPool) ingest(kind uint8, streamID string, obs []detectors.Observation) error {
	seq := p.seqs.next(streamID)
	c := p.conn(streamID)
	err := c.ingestSeq(kind, streamID, obs, seq)
	if next, ok := p.failedOver(c, streamID, err); ok {
		err = next.ingestSeq(kind, streamID, obs, seq)
	}
	return err
}

// IngestBatchAsync routes a block over the stream's connection without
// waiting (see Client.IngestBatchAsync).
func (p *ClientPool) IngestBatchAsync(streamID string, obs []detectors.Observation) (Pending, error) {
	return p.conn(streamID).IngestBatchAsync(streamID, obs)
}

// TryIngestBatch routes a block over the stream's connection without
// blocking backpressure (see Client.TryIngestBatch).
func (p *ClientPool) TryIngestBatch(streamID string, obs []detectors.Observation) (bool, error) {
	return p.conn(streamID).TryIngestBatch(streamID, obs)
}

// Evict routes the eviction over the stream's connection, behind any of the
// stream's requests already pipelined there.
func (p *ClientPool) Evict(streamID string) error {
	return p.conn(streamID).Evict(streamID)
}

// FlushCheckpoints issues the flush on every live connection, so it is a
// barrier for requests pipelined ahead of it on all of them, then for the
// monitor itself (Monitor.FlushCheckpoints semantics). It stops at the
// first error; dead connections are skipped unless every connection is
// dead, in which case the first sticky error surfaces.
func (p *ClientPool) FlushCheckpoints() error {
	live := 0
	for _, c := range p.clients {
		if c.Dead() {
			continue
		}
		live++
		if err := c.FlushCheckpoints(); err != nil {
			return err
		}
	}
	if live == 0 {
		return p.clients[0].sticky()
	}
	return nil
}

// Snapshot fetches the monitor's aggregate counters over the first live
// connection.
func (p *ClientPool) Snapshot() (monitor.Snapshot, error) {
	for _, c := range p.clients {
		if !c.Dead() {
			return c.Snapshot()
		}
	}
	return p.clients[0].Snapshot()
}

// Migrate exports a stream for handoff over the stream's own connection —
// behind any of its requests already pipelined there, so everything sent
// before the migrate is applied before the state is serialized (see
// Client.Migrate). A connection death mid-call fails over like Ingest: the
// re-sent Migrate re-exports from the server's checkpoint store (exports
// spill first), so the retry returns the same bytes.
func (p *ClientPool) Migrate(streamID string) ([]byte, error) {
	c := p.conn(streamID)
	state, err := c.Migrate(streamID)
	if next, ok := p.failedOver(c, streamID, err); ok {
		state, err = next.Migrate(streamID)
	}
	return state, err
}

// Handoff installs a migrated stream's state over the stream's connection
// (see Client.Handoff), failing over like Ingest. A handoff resend after a
// lost ack is refused with "already resident", which the cluster layer
// treats as success.
func (p *ClientPool) Handoff(streamID string, state []byte) error {
	c := p.conn(streamID)
	err := c.Handoff(streamID, state)
	if next, ok := p.failedOver(c, streamID, err); ok {
		err = next.Handoff(streamID, state)
	}
	return err
}

// StreamIDs lists the server's resident streams over the first live
// connection (see Client.StreamIDs).
func (p *ClientPool) StreamIDs() ([]string, error) {
	for _, c := range p.clients {
		if !c.Dead() {
			return c.StreamIDs()
		}
	}
	return p.clients[0].StreamIDs()
}

// Subscribe opens a drift-event subscription (its own connection, outside
// the pool's request pipelines) via the pool's first connection's dialer.
func (p *ClientPool) Subscribe(buffer int) (*Subscription, error) {
	return p.clients[0].Subscribe(buffer)
}

// LastDrift fetches the most recent drift report for a stream over the
// stream's own connection (see Client.LastDrift).
func (p *ClientPool) LastDrift(streamID string) (monitor.DriftReport, bool, error) {
	return p.conn(streamID).LastDrift(streamID)
}

// Latency merges the client-observed RTT histograms across the pool's
// connections into one stage set (see Client.Latency).
func (p *ClientPool) Latency() []telemetry.Stage {
	groups := make([][]telemetry.Stage, 0, len(p.clients))
	for _, c := range p.clients {
		if st := c.Latency(); len(st) > 0 {
			groups = append(groups, st)
		}
	}
	if len(groups) == 0 {
		return nil
	}
	return telemetry.MergeStages(groups...)
}

// Close closes every connection. In-flight requests on all of them receive
// errors, never hangs; like Client.Close it is idempotent.
func (p *ClientPool) Close() error {
	for _, c := range p.clients {
		if c != nil {
			c.Close()
		}
	}
	return nil
}
