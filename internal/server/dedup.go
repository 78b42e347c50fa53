package server

import (
	"math"
	"sync"
	"sync/atomic"
)

// Exactly-once ingest under retry.
//
// A reconnecting client cannot know whether a request that was in flight
// when its connection died was applied before the ack was lost — so it must
// resend, and a resend of an already-applied batch would double-count
// observations, silently corrupting the prequential drift statistics the
// whole system exists to compute. Every Ingest / IngestBatch /
// TryIngestBatch frame therefore carries the client's session id (a random
// nonzero uint64 minted per Client or shared per ClientPool) and a
// per-stream sequence number; the server remembers, per (session, stream),
// which of the last DedupWindow sequence numbers it has committed and acks a
// duplicate with OK without re-ingesting.
//
// The fate of a (session, stream, seq) is resolved atomically via claim:
// the first handler to claim a seq owns it and marks it in flight *before*
// ingesting, and a duplicate arriving on another connection while the owner
// is still blocked inside the monitor's enqueue waits (on the table's
// condition variable) for the owner's settle instead of racing it. Without
// the in-flight marker the reconnect-under-stall scenario double-ingests:
// the old connection's handler sits in Monitor.IngestBatch (it commits only
// after the blocking enqueue returns) while the client's resend on the new
// connection passes the committed-check and ingests the same observations
// again. The marker is a plain token in a map — no per-claim allocation, so
// the zero-alloc steady state of the serving loop survives.
//
// The window is an exact-set bitmap, not a high-water mark: with W requests
// pipelined, a Busy-shed batch's retry can race batches with newer sequence
// numbers that were accepted, so "seq <= max applied" does not imply
// "applied". A seq that has fallen out of the window entirely is
// *undecidable* — it was either committed long ago or is a gap (a Busy
// shed, an outage resend) that never committed — so it is rejected with an
// error rather than acked: an ack would report silent data loss as success
// for the never-committed case, while an error at worst makes the client
// surface a failure for data that did land (the loud, recoverable side).
// As long as DedupWindow comfortably exceeds the client's total in-flight
// requests per stream (default 1024 vs a default window of 32) a live
// retry's seq cannot age out, so the rejection only fires for pathological
// deferral.
//
// Sessions are capped: past maxSessions the least-recently-active session's
// state is dropped (a client that comes back after eviction retries into an
// empty window, which at worst re-ingests — bounded memory is the better
// failure mode for a server facing session churn). Eviction wakes any
// waiter parked on the victim's in-flight seqs so nobody is stranded.

// claimState is the atomically-resolved fate of a (session, stream, seq);
// see dedupTable.claim.
type claimState uint8

const (
	// claimOwned: the caller owns the seq (marked in flight) and must
	// settle it exactly once, on every outcome path.
	claimOwned claimState = iota
	// claimApplied: duplicate of a committed seq; ack without re-ingesting.
	claimApplied
	// claimAged: the seq fell out of the window undecided; reject.
	claimAged
)

// dedupStream is one (session, stream)'s committed-seq window: a bitmap
// over the window-aligned positions of the last `window` sequence numbers,
// the highest committed seq that anchors it, and the seqs currently being
// ingested (seq → owner's claim token).
type dedupStream struct {
	maxSeq   uint64
	bits     []uint64
	inflight map[uint64]uint64 // lazily allocated
}

type dedupSession struct {
	streams    map[string]*dedupStream
	lastActive uint64 // dedupTable.tick at last touch; eviction order
}

// dedupTable is the server's (session, stream) → committed-seq-window map.
// One mutex guards it: the critical sections are a map probe and a bitmap
// test or set, far cheaper than the decode and ring push on either side.
// cond (on mu) wakes handlers waiting out a concurrent in-flight duplicate.
type dedupTable struct {
	window      uint64 // power of two, >= 64
	maxSessions int
	hits        atomic.Uint64

	mu        sync.Mutex
	cond      sync.Cond
	sessions  map[uint64]*dedupSession
	tick      uint64
	lastToken uint64 // claim token generator; 0 is never issued
}

func newDedupTable(window, maxSessions int) *dedupTable {
	w := uint64(64)
	for w < uint64(window) {
		w <<= 1
	}
	d := &dedupTable{
		window:      w,
		maxSessions: maxSessions,
		sessions:    make(map[uint64]*dedupSession),
	}
	d.cond.L = &d.mu
	return d
}

func (st *dedupStream) bit(seq, window uint64) (idx int, mask uint64) {
	return int((seq & (window - 1)) >> 6), 1 << (seq & 63)
}

// claim atomically resolves the fate of (session, stream, seq) against both
// the committed window and concurrent handlers. A seq currently in flight
// on another connection (the reconnect-resend race) blocks here until that
// handler settles — or its session is evicted — then re-resolves. For
// claimOwned the returned token (nonzero) must be passed back to settle; it
// keeps settle precise when the session was evicted and re-claimed
// mid-ingest (the re-claimed seq's fresh marker belongs to its new owner
// and is left alone). Duplicates of committed seqs count as hits.
func (d *dedupTable) claim(session uint64, stream string, seq uint64) (claimState, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		d.tick++
		ds := d.sessions[session]
		if ds == nil {
			d.evictOldest()
			ds = &dedupSession{streams: make(map[string]*dedupStream)}
			d.sessions[session] = ds
		}
		ds.lastActive = d.tick
		st := ds.streams[stream]
		if st == nil {
			st = &dedupStream{bits: make([]uint64, d.window/64)}
			ds.streams[stream] = st
		}
		if seq <= st.maxSeq {
			if st.maxSeq-seq >= d.window {
				return claimAged, 0
			}
			idx, mask := st.bit(seq, d.window)
			if st.bits[idx]&mask != 0 {
				d.hits.Add(1)
				return claimApplied, 0
			}
		}
		if _, busy := st.inflight[seq]; !busy {
			if st.inflight == nil {
				st.inflight = make(map[uint64]uint64)
			}
			d.lastToken++
			st.inflight[seq] = d.lastToken
			return claimOwned, d.lastToken
		}
		// Another handler owns this seq right now — typically the old
		// connection's handler still blocked inside the monitor's enqueue
		// when the resend arrived on a new connection. Its settle (or its
		// session's eviction) broadcasts; re-resolve then. Wait releases mu,
		// so the owner is never blocked out of settling.
		d.cond.Wait()
	}
}

// settle resolves a claimOwned seq: the in-flight marker is removed and its
// waiters woken, and — when the ingest was committed — the seq is recorded
// in the window. Advancing past maxSeq clears the bitmap positions the new
// range reuses, so a gap's seqs (never committed) stay reported fresh while
// they remain inside the window.
func (d *dedupTable) settle(session uint64, stream string, seq uint64, token uint64, committed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tick++
	ds := d.sessions[session]
	if ds == nil {
		return // session evicted mid-ingest; eviction woke the waiters
	}
	ds.lastActive = d.tick
	st := ds.streams[stream]
	if st == nil {
		return
	}
	if st.inflight[seq] == token {
		delete(st.inflight, seq)
		d.cond.Broadcast()
	}
	if !committed {
		return
	}
	if seq > st.maxSeq {
		if seq-st.maxSeq >= d.window {
			clear(st.bits)
		} else {
			for s := st.maxSeq + 1; s <= seq; s++ {
				idx, mask := st.bit(s, d.window)
				st.bits[idx] &^= mask
			}
		}
		st.maxSeq = seq
	}
	idx, mask := st.bit(seq, d.window)
	st.bits[idx] |= mask
}

// evictOldest drops the least-recently-active session when the table is at
// its cap, waking any handler waiting on one of its in-flight seqs so no
// duplicate is stranded on a marker nobody will settle. Called with d.mu
// held, before inserting a new session.
func (d *dedupTable) evictOldest() {
	if d.maxSessions <= 0 || len(d.sessions) < d.maxSessions {
		return
	}
	var victim uint64
	oldest := uint64(math.MaxUint64)
	for id, s := range d.sessions {
		if s.lastActive < oldest {
			oldest = s.lastActive
			victim = id
		}
	}
	for _, st := range d.sessions[victim].streams {
		if len(st.inflight) > 0 {
			d.cond.Broadcast()
			break
		}
	}
	delete(d.sessions, victim)
}
