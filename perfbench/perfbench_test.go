package main

import (
	"slices"
	"testing"
)

func TestInputsDeterministic(t *testing.T) {
	a, err := buildRBMStreams(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildRBMStreams(11)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildRBMStreams(12)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for s := range a {
		if a[s].id != b[s].id || a[s].phase != b[s].phase {
			t.Fatalf("stream %d: identity differs between equal seeds", s)
		}
		for _, pos := range []int{0, 37 * blockSize, 200 * blockSize} {
			x, y, z := a[s].block(pos), b[s].block(pos), c[s].block(pos)
			for i := range x {
				if x[i].TrueClass != y[i].TrueClass || !slices.Equal(x[i].X, y[i].X) {
					t.Fatalf("stream %d pos %d: inputs differ between equal seeds", s, pos+i)
				}
				if x[i].TrueClass != z[i].TrueClass || !slices.Equal(x[i].X, z[i].X) {
					differs = true
				}
			}
		}
		if !slices.EqualFunc(a[s].drifts(5*cycleLen), b[s].drifts(5*cycleLen), func(p, q truthDrift) bool { return p.Pos == q.Pos }) {
			t.Fatalf("stream %d: ground truth differs between equal seeds", s)
		}
	}
	if !differs {
		t.Fatal("seeds 11 and 12 produced identical RBM-IM inputs")
	}

	d, e, g := buildDDMInputs(11), buildDDMInputs(11), buildDDMInputs(12)
	differs = false
	for s := 0; s < ddmStreams; s += 97 {
		for pos := 0; pos < 3*ddmCycle; pos += 13 {
			x, y, z := d.obs(s, pos), e.obs(s, pos), g.obs(s, pos)
			if x.TrueClass != y.TrueClass || x.Predicted != y.Predicted || !slices.Equal(x.X, y.X) {
				t.Fatalf("ddm stream %d pos %d: inputs differ between equal seeds", s, pos)
			}
			if x.TrueClass != z.TrueClass || x.Predicted != z.Predicted {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("seeds 11 and 12 produced identical DDM-OCI inputs")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.Tail != 0.95 || s.TailV != 190 || s.P50 != 100 || s.Max != 200 {
		t.Fatalf("summarize(1..200) = %+v", s)
	}
	beyond := 0
	for _, x := range xs {
		if x > s.TailV {
			beyond++
		}
	}
	if beyond < 10 {
		t.Fatalf("only %d samples beyond p%g", beyond, 100*s.Tail)
	}
}

func TestMeanOfGroupMedians(t *testing.T) {
	group := []int64{1, 2, 1, 2, 1, 2, 2}
	xs := []float64{3, 40, 1, 10, 2, 30, 20}
	// Group 1 has median 2, group 2 median 25.
	if got := meanOfGroupMedians(group, xs); got != 13.5 {
		t.Fatalf("meanOfGroupMedians = %v, want 13.5", got)
	}
}

func TestDueForAttributesSeqToItsBlock(t *testing.T) {
	// Blocks of 256 starting after a 1536-observation warm-up, due every
	// 10ns; a migration-free stream's marks are contiguous.
	var marks []dueMark
	for b := 0; b < 4; b++ {
		marks = append(marks, dueMark{FirstSeq: 1536 + b*256 + 1, Due: int64(100 + 10*b)})
	}
	for _, c := range []struct {
		seq int
		due int64
		ok  bool
	}{
		{1536, 0, false}, // last warm-up observation: no due time
		{1537, 100, true},
		{1792, 100, true}, // last observation of the first block
		{1793, 110, true},
		{1850, 110, true},
		{2560, 130, true},
		{9999, 130, true},
	} {
		due, ok := dueFor(marks, c.seq)
		if ok != c.ok || due != c.due {
			t.Errorf("dueFor(seq %d) = %d,%v; want %d,%v", c.seq, due, ok, c.due, c.ok)
		}
	}
	evs := []driftEvent{{Stream: 0, Seq: 1800, Arrive: 150}, {Stream: 0, Seq: 10, Arrive: 150}}
	lat := eventLatencies(evs, [][]dueMark{marks})
	if len(lat) != 1 || lat[0] != 40e-6 {
		t.Fatalf("eventLatencies = %v, want one sample of 40ns in ms", lat)
	}
}

func TestSelfTimesFromNestedSpans(t *testing.T) {
	spans := []span{
		{Layer: "a", ID: 1, Start: 0, End: 100},
		{Layer: "b", Parent: "a", ID: 1, Start: 10, End: 40},
		{Layer: "b", Parent: "a", ID: 1, Start: 30, End: 60}, // overlaps the first child
		{Layer: "c", Parent: "b", ID: 1, Start: 15, End: 20},
		{Layer: "b", Parent: "a", ID: 1, Start: 90, End: 120}, // clipped at the parent's end
		{Layer: "b", Parent: "a", ID: 2, Start: 0, End: 50},   // another request: not a's child
		{Layer: "a", ID: 2, Start: 0, End: 10},
	}
	lt := selfTimes(spans)
	// a(1): 100 - |[10,60] ∪ [90,100]| = 40; a(2): 10 - |[0,10]| = 0.
	if got := lt["a"]; got.Total != 110 || got.Self != 40 || got.Count != 2 {
		t.Errorf("a = %+v, want total 110 self 40 count 2", got)
	}
	// c lies inside the first b span only; clipping keeps it out of the
	// others.
	if got := lt["b"]; got.Total != 30+30+30+50 || got.Self != 135 {
		t.Errorf("b = %+v, want total 140 self 135", got)
	}
	if got := lt["c"]; got.Total != 5 || got.Self != 5 {
		t.Errorf("c = %+v, want total 5 self 5", got)
	}
}

func TestScoreStream(t *testing.T) {
	truth := []truthDrift{{Pos: 1000, Kind: "global"}, {Pos: 3000, Kind: "local"}, {Pos: 5000, Kind: "global"}}
	// Detected 1000 (event 1100), repeat at 1200 ignored, 3000 missed,
	// false alarm at 2500 (outside every window), 5000 not evaluable
	// (window ends past to).
	sc := scoreStream([]int{500, 1100, 1200, 2500, 5100}, truth, 600, 5500, 1000)
	if sc.Detected != 1 || sc.Evaluable != 2 || sc.FalseAlarms != 1 ||
		sc.ByKind["global"] != [2]int{1, 1} || sc.ByKind["local"] != [2]int{0, 1} {
		t.Fatalf("score = %+v", sc)
	}
}
