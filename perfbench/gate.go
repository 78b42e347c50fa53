package main

import (
	"fmt"
	"slices"
	"sort"

	"rbmim/internal/core"
	"rbmim/internal/detectors"
)

// driftEvent is one drift decision as the benchmark observed it.
type driftEvent struct {
	Stream  int
	Seq     int   // observations of the stream at detection
	Classes []int // sorted
	// Group identifies the detector call that produced the event: a batched
	// detector reports, for every drifting mini-batch of one call, the
	// union of their classes.
	Group  int64
	Arrive int64 // ns on the run clock
}

// refDrift is one drift of the direct reference run, with the exact
// classes of its own mini-batch (or observation).
type refDrift struct {
	Seq     int
	Classes []int
}

// referenceRBM replays stream s's first n observations through a fresh
// RBM-IM detector configured like the served ones, one mini-batch per
// UpdateBatch call so every drift carries its own mini-batch's classes.
func referenceRBM(s *rbmStream, n int) ([]refDrift, error) {
	det, err := core.NewDetector(core.Config{Features: features, Classes: classes, Seed: detectorSeedFor(s.id)})
	if err != nil {
		return nil, err
	}
	mb := det.Config().BatchSize
	chunk := make([]detectors.Observation, 0, mb)
	states := make([]detectors.State, mb)
	var out []refDrift
	for pos := 0; pos < n; pos += mb {
		chunk = chunk[:0]
		for i := pos; i < pos+mb && i < n; i++ {
			chunk = append(chunk, s.block(i - i%blockSize)[i%blockSize])
		}
		det.UpdateBatch(chunk, states[:len(chunk)])
		for i, st := range states[:len(chunk)] {
			if st == detectors.Drift {
				out = append(out, refDrift{Seq: pos + i + 1, Classes: sortedInts(det.DriftClasses())})
			}
		}
	}
	return out, nil
}

// referenceDDM replays wire-single stream s's first n observations through
// a fresh DDM-OCI detector.
func referenceDDM(in *ddmInputs, s, n int) []refDrift {
	det := detectors.NewDDMOCI(classes, 0, 0)
	var out []refDrift
	for pos := 0; pos < n; pos++ {
		if det.Update(in.obs(s, pos)) == detectors.Drift {
			out = append(out, refDrift{Seq: pos + 1, Classes: sortedInts(det.DriftClasses())})
		}
	}
	return out
}

// compareEvents checks one stream's observed events against the reference:
// identical drift positions, and each event's classes equal to the union
// of the reference classes over the events of its detector call.
func compareEvents(got []driftEvent, want []refDrift) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d events, reference has %d (got seqs %v, want %v)", len(got), len(want), eventSeqs(got), refSeqs(want))
	}
	union := make(map[int64][]int)
	for i, ev := range got {
		if ev.Seq != want[i].Seq {
			return fmt.Errorf("event %d at seq %d, reference at %d", i, ev.Seq, want[i].Seq)
		}
		u := union[ev.Group]
		for _, k := range want[i].Classes {
			if !slices.Contains(u, k) {
				u = append(u, k)
			}
		}
		union[ev.Group] = u
	}
	for i, ev := range got {
		exp := sortedInts(union[ev.Group])
		if !slices.Equal(ev.Classes, exp) {
			return fmt.Errorf("event %d at seq %d has classes [%s], reference [%s]", i, ev.Seq, joinInts(ev.Classes), joinInts(exp))
		}
	}
	return nil
}

func eventSeqs(evs []driftEvent) []int {
	out := make([]int, len(evs))
	for i, e := range evs {
		out[i] = e.Seq
	}
	return out
}

func refSeqs(rs []refDrift) []int {
	out := make([]int, len(rs))
	for i, r := range rs {
		out[i] = r.Seq
	}
	return out
}

// byStream splits events per stream, each sorted by Seq.
func byStream(evs []driftEvent, streams int) [][]driftEvent {
	out := make([][]driftEvent, streams)
	for _, e := range evs {
		out[e.Stream] = append(out[e.Stream], e)
	}
	for _, l := range out {
		sort.Slice(l, func(i, j int) bool { return l[i].Seq < l[j].Seq })
	}
	return out
}

// driftScore is detection quality against the injected ground truth.
type driftScore struct {
	Detected, Evaluable, FalseAlarms int
	// ByKind splits Detected/Evaluable by drift kind.
	ByKind map[string][2]int
}

func (a *driftScore) add(b driftScore) {
	a.Detected += b.Detected
	a.Evaluable += b.Evaluable
	a.FalseAlarms += b.FalseAlarms
	for k, v := range b.ByKind {
		a.count(k, v[0], v[1])
	}
}

func (a *driftScore) count(kind string, detected, evaluable int) {
	if a.ByKind == nil {
		a.ByKind = make(map[string][2]int)
	}
	v := a.ByKind[kind]
	a.ByKind[kind] = [2]int{v[0] + detected, v[1] + evaluable}
}

// String reports recall overall and per drift kind.
func (a driftScore) String() string {
	kinds := make([]string, 0, len(a.ByKind))
	for k := range a.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	s := fmt.Sprintf("recall %d/%d", a.Detected, a.Evaluable)
	for _, k := range kinds {
		s += fmt.Sprintf(" (%s %d/%d)", k, a.ByKind[k][0], a.ByKind[k][1])
	}
	return s + fmt.Sprintf(", %d false alarms", a.FalseAlarms)
}

// scoreStream scores one stream's events (sorted by Seq) over the timed
// positions [from, to) against the injected drifts in truth (ascending).
// A drift at Pos is detected by an event with Seq in (Pos, Pos+window];
// it is evaluable when that whole window lies inside the timed positions.
// Further events inside a drift's window are repeats and count for
// nothing; an event outside every window is a false alarm.
func scoreStream(seqs []int, truth []truthDrift, from, to, window int) driftScore {
	var sc driftScore
	evaluable := func(d truthDrift) bool { return d.Pos >= from && d.Pos+window <= to }
	for _, d := range truth {
		if evaluable(d) {
			sc.Evaluable++
			sc.count(d.Kind, 0, 1)
		}
	}
	claimed := make(map[int]bool)
	for _, seq := range seqs {
		if seq <= from || seq > to {
			continue
		}
		// The latest drift whose first new-concept observation (Seq Pos+1)
		// is at or before this event.
		j := sort.Search(len(truth), func(i int) bool { return truth[i].Pos >= seq }) - 1
		switch {
		case j < 0 || seq > truth[j].Pos+window:
			sc.FalseAlarms++
		case !claimed[j]:
			claimed[j] = true
			if evaluable(truth[j]) {
				sc.Detected++
				sc.count(truth[j].Kind, 1, 0)
			}
		}
	}
	return sc
}

// dueMark records that the observations of one stream from FirstSeq on
// were due at Due (ns on the run clock).
type dueMark struct {
	FirstSeq int
	Due      int64
}

// dueFor returns the due time of the block holding observation seq, given
// the stream's marks in FirstSeq order; false when seq precedes them.
func dueFor(marks []dueMark, seq int) (int64, bool) {
	i := sort.Search(len(marks), func(i int) bool { return marks[i].FirstSeq > seq }) - 1
	if i < 0 {
		return 0, false
	}
	return marks[i].Due, true
}
