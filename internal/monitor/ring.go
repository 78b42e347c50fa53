package monitor

// Bounded MPSC ring buffer — the shard ingest queue. Replaces the previous
// buffered-channel queues: many producer goroutines (IngestBatch
// callers, server connections) push envelopes concurrently, exactly one
// consumer (the shard goroutine) drains them, and per-producer FIFO order is
// preserved — the property the ordering-equivalence guarantee rests on
// (drift decisions are sequence-dependent, so a stream's observations must
// reach its detector in send order).
//
// The slot protocol is Vyukov's bounded MPMC queue specialised to a single
// consumer: each slot carries a sequence number; producers claim a ticket
// with one CAS on the head index and publish by storing seq = ticket+1;
// the consumer owns the tail outright and retires a slot by storing
// seq = ticket+capacity. Producers never read the tail and the consumer
// never touches the head, so the only cross-side traffic is the per-slot
// seq — and head and tail live on their own cache lines to keep producer
// CAS traffic from invalidating the consumer's line (false sharing).
//
// Batches move as units: an IngestBatch slab is one envelope, one ticket,
// one slot — the queue cost of a 256-observation block equals that of a
// single observation — and the consumer pops up to a whole micro-batch of
// envelopes per wakeup (popBatch), so a busy shard pays the synchronization
// cost once per drain, not once per message.
//
// Waiting is adaptive spin-then-park on both sides. The consumer spins
// briefly (work usually arrives within microseconds under load), then
// publishes a parked flag and blocks on a wake channel; a producer that
// observes the flag clears it with a CAS and sends one token — at most one
// wakeup per park, no thundering herd. Producers that hit a full ring spin,
// then queue on a condition variable that the consumer broadcasts only when
// the waiter count is non-zero, so the uncontended fast path never touches
// the lock.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// cacheLinePad separates hot indices so producer CAS traffic and consumer
// stores do not share a line (64 bytes on amd64/arm64; 128 would also cover
// adjacent-line prefetchers, but 64 matches the rest of the codebase).
const cacheLinePad = 64

// ringSlot is one queue cell: the Vyukov sequence number plus the envelope
// payload. Slots are deliberately unpadded — envelopes are written once per
// hop and adjacent-slot sharing is amortized by batch pops.
type ringSlot struct {
	seq atomic.Uint64
	env envelope
}

// ring is the bounded MPSC queue. Capacity is rounded up to a power of two
// so index math is a mask, not a division.
type ring struct {
	mask  uint64
	slots []ringSlot

	_    [cacheLinePad]byte
	head atomic.Uint64 // next producer ticket; CAS-claimed
	_    [cacheLinePad]byte
	tail atomic.Uint64 // next consumer ticket; written only by the consumer
	_    [cacheLinePad]byte

	// parked is 1 while the consumer is blocked on wake; a producer that
	// CASes it back to 0 owns the (single) wakeup token.
	parked atomic.Uint32
	wake   chan struct{}

	// highWater tracks the maximum envelope occupancy the consumer has
	// observed — the signal the shard-count autotuner reads.
	highWater atomic.Uint64

	// Full-ring producer parking. waiters is read by the consumer on every
	// drain; the mutex and cond are only touched on the slow path.
	waiters atomic.Int32
	fullMu  sync.Mutex
	full    *sync.Cond
}

// newRing builds a ring with at least the given capacity (rounded up to a
// power of two). The minimum is 2: with a single slot the published sequence
// (ticket+1) and the recycled sequence (ticket+capacity) coincide, and a
// producer would overwrite an unconsumed envelope.
func newRing(capacity int) *ring {
	n := uint64(2)
	for int(n) < capacity {
		n <<= 1
	}
	r := &ring{
		mask:  n - 1,
		slots: make([]ringSlot, n),
		wake:  make(chan struct{}, 1),
	}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	r.full = sync.NewCond(&r.fullMu)
	return r
}

// cap returns the ring's envelope capacity.
func (r *ring) cap() int { return len(r.slots) }

// occupancy returns the current number of queued envelopes. head can lead
// the published slots by in-flight claims, so this is a bounded estimate —
// exact whenever producers are quiescent.
func (r *ring) occupancy() uint64 {
	head := r.head.Load()
	tail := r.tail.Load()
	if head < tail { // racing loads; re-read order makes this transient
		return 0
	}
	return head - tail
}

// tryPush attempts to enqueue without blocking; false means the ring is
// full. Safe for any number of concurrent producers.
func (r *ring) tryPush(env envelope) bool {
	pos := r.head.Load()
	for {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		switch d := int64(seq) - int64(pos); {
		case d == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				s.env = env
				s.seq.Store(pos + 1)
				r.wakeConsumer()
				return true
			}
			pos = r.head.Load()
		case d < 0:
			// The slot still holds an unconsumed envelope from the previous
			// lap: the ring is full.
			return false
		default:
			// Another producer claimed this ticket; chase the head.
			pos = r.head.Load()
		}
	}
}

// pushSpins bounds how many yielding retries a producer burns on a full
// ring before parking on the condition variable.
const pushSpins = 64

// push enqueues, blocking while the ring is full — the backpressure path of
// IngestBatch. It always succeeds.
func (r *ring) push(env envelope) {
	for i := 0; i < pushSpins; i++ {
		if r.tryPush(env) {
			return
		}
		runtime.Gosched()
	}
	r.fullMu.Lock()
	r.waiters.Add(1)
	// Re-try after registering as a waiter and before every wait: the
	// consumer frees slots, then checks waiters — either it sees our
	// registration and broadcasts, or our retry sees the freed slots.
	for !r.tryPush(env) {
		r.full.Wait()
	}
	r.waiters.Add(-1)
	r.fullMu.Unlock()
}

// wakeConsumer delivers at most one wakeup token when the consumer is
// parked. The CAS makes exactly one of the racing producers responsible.
func (r *ring) wakeConsumer() {
	if r.parked.Load() == 1 && r.parked.CompareAndSwap(1, 0) {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// popBatch dequeues up to len(dst) envelopes into dst and returns how many
// it moved. Consumer-only. It records the pre-drain occupancy high-water
// mark and wakes parked producers when slots were freed.
func (r *ring) popBatch(dst []envelope) int {
	pos := r.tail.Load()
	if occ := r.head.Load() - pos; occ > r.highWater.Load() {
		r.highWater.Store(occ) // single writer: plain store is a max-update
	}
	n := 0
	for n < len(dst) {
		s := &r.slots[pos&r.mask]
		seq := s.seq.Load()
		if int64(seq)-int64(pos+1) < 0 {
			break // slot not yet published: ring is empty (from our side)
		}
		dst[n] = s.env
		s.env = envelope{} // drop slab references so the pool can recycle
		s.seq.Store(pos + r.mask + 1)
		pos++
		n++
	}
	if n > 0 {
		r.tail.Store(pos)
		if r.waiters.Load() > 0 {
			r.fullMu.Lock()
			r.full.Broadcast()
			r.fullMu.Unlock()
		}
	}
	return n
}

// resetHighWater restarts the high-water window at the current occupancy.
// Consumer-only, like every highWater store (popBatch records the mark, the
// shard goroutine resets it on the FlushCheckpoints barrier), so the plain
// store never races a concurrent max-update.
func (r *ring) resetHighWater() { r.highWater.Store(r.occupancy()) }

// prepark publishes the consumer's intent to sleep. The caller must re-check
// occupancy() afterwards and only block on wakeCh() when it is still zero:
// a producer either sees parked==1 (and sends a token) or published its slot
// before our flag store (and the occupancy re-check sees it) — Go atomics
// are sequentially consistent, so both cannot be missed.
func (r *ring) prepark() { r.parked.Store(1) }

// unpark withdraws the parked flag (after a wakeup, a ticker firing, or an
// aborted park). A stale token left in wake only causes one spurious — and
// harmless — extra loop iteration later.
func (r *ring) unpark() { r.parked.Store(0) }

// wakeCh is the channel the parked consumer blocks on.
func (r *ring) wakeCh() <-chan struct{} { return r.wake }
