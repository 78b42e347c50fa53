package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Layer names, after the repository's modules.
const (
	layerBench   = "bench"
	layerCore    = "core"
	layerKernel  = "core.rbm"
	layerMonitor = "monitor"
	layerCkpt    = "monitor.ckpt"
	layerServer  = "server"
	layerClient  = "server.client"
	layerCluster = "server.cluster"
	// layerAck labels a request's whole client-side lifetime, from the
	// submit call to Pending.Wait returning; it is a root span, so it does
	// not count against the generator's self time.
	layerAck = "server.client.ack"
	// layerEvent labels a drift event's way from the due time of the block
	// holding its Seq to its arrival at the subscriber (a root span).
	layerEvent = "event"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one request share ID; Parent names the layer whose
// span encloses this one for the same request ("" for a root).
type span struct {
	Layer  string
	Parent string
	ID     uint64
	Start  int64 // ns since the tracer's epoch
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// requestID packs a request's (stream, seq) into one span ID.
func requestID(stream int, seq int) uint64 { return uint64(stream)<<32 | uint64(uint32(seq)) }

// tracer keeps spans in memory; nil disables tracing at the cost of one
// nil check per call site. Every goroutine records into its own log, so
// the hot path takes no lock. Its clock is the run clock: nanoseconds since
// the run's epoch, the same base every due and arrival time uses.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	logs  []*spanLog
}

type spanLog struct{ spans []span }

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// now returns the tracer clock; callers only reach it with tracing on.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// at converts a wall instant to the tracer clock.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) }

// log returns a new per-goroutine span log.
func (t *tracer) log() *spanLog {
	if t == nil {
		return nil
	}
	l := &spanLog{spans: make([]span, 0, 1<<12)}
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

func (l *spanLog) add(s span) {
	if l != nil {
		l.spans = append(l.spans, s)
	}
}

// addEvents records an event span for every event due at or after from.
func (t *tracer) addEvents(evs []driftEvent, dueOf func(driftEvent) (int64, bool), from int64) {
	log := t.log()
	for _, e := range evs {
		if due, ok := dueOf(e); ok && due >= from {
			log.add(span{Layer: layerEvent, ID: requestID(e.Stream, e.Seq), Start: due, End: e.Arrive})
		}
	}
}

// all returns every recorded span, ordered by start.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, l := range t.logs {
		out = append(out, l.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores the spans as CSV (layer,parent,id,start_ns,end_ns).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,parent,id,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", s.Layer, s.Parent, s.ID, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one layer's inclusive and self time over a span set.
type layerTime struct {
	Total int64 // sum of span durations
	Self  int64 // Total minus the part covered by child spans
	Count int
}

// selfTimes computes each layer's inclusive and self time. A span's
// children are the spans of the same request whose Parent is its layer;
// the self time subtracts the union of the children's intervals, clipped
// to the parent's, so overlapping children are not subtracted twice.
func selfTimes(spans []span) map[string]layerTime {
	byID := make(map[uint64][]int)
	for i, s := range spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	out := make(map[string]layerTime)
	var iv [][2]int64
	for _, idx := range byID {
		for _, pi := range idx {
			p := spans[pi]
			iv = iv[:0]
			for _, ci := range idx {
				c := spans[ci]
				if ci == pi || c.Parent != p.Layer {
					continue
				}
				lo, hi := max(c.Start, p.Start), min(c.End, p.End)
				if lo < hi {
					iv = append(iv, [2]int64{lo, hi})
				}
			}
			lt := out[p.Layer]
			lt.Count++
			lt.Total += p.dur()
			lt.Self += p.dur() - unionLen(iv)
			out[p.Layer] = lt
		}
	}
	return out
}

// unionLen returns the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}
