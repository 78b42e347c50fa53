package main

import (
	"fmt"
	"math/rand"
	"slices"

	"rbmim/internal/detectors"
	"rbmim/internal/monitor"
	"rbmim/internal/stream"
	"rbmim/internal/synth"
)

// The canonical shape every workload shares: V=20 features, C=5 classes,
// blocks of 256 observations.
const (
	features  = 20
	classes   = 5
	blockSize = 256
	// imbalanceRatio is the largest-to-smallest class ratio of the
	// geometric class prior.
	imbalanceRatio = 20
)

// RBM-IM stream inputs (embedded and fleet). Each stream replays a cycle
// of a seeded family from its own phase; the cycle holds four drifts at
// known offsets, so recycling the pool keeps the ground truth exact.
const (
	cycleLen      = 64 * blockSize // observations per family cycle
	rbmFamilies   = 32
	rbmStreams    = 64
	warmupBlocks  = 6 // 1536 observations ≥ WarmupBatches(30) × BatchSize(50)
	detectorSeed  = 7 // the base seed driftserver ships
	localDriftAt  = cycleLen / 4
	globalDriftAt = cycleLen / 2
	roleSwitchAt  = 3 * cycleLen / 4
	// rbmWindow is how soon after an injected drift an event counts as
	// its detection.
	rbmWindow = cycleLen / 8
)

// truthDrift is one injected drift in stream coordinates: the change takes
// effect at observation index Pos (0-based), i.e. the first observation of
// the new concept has Seq Pos+1.
type truthDrift struct {
	Pos  int
	Kind string // global, local (minority classes) or role-switch
}

// family is one cycle of pre-generated observations. X slices view one
// slab and are never written after generation.
type family struct {
	obs []detectors.Observation
}

// rbmStream is one RBM-IM stream of the embedded/fleet workloads.
type rbmStream struct {
	id    string
	fam   *family
	phase int // cycle offset of stream position 0, a multiple of blockSize
}

// block returns the observations at stream positions [pos, pos+blockSize);
// pos must be a multiple of blockSize.
func (s *rbmStream) block(pos int) []detectors.Observation {
	i := (s.phase + pos) % cycleLen
	return s.fam.obs[i : i+blockSize]
}

// drifts lists the injected drifts at positions before to. Position 0 of
// a stream is its start, not a drift.
func (s *rbmStream) drifts(to int) []truthDrift {
	var out []truthDrift
	for cycle := s.phase / cycleLen; cycle*cycleLen-s.phase < to; cycle++ {
		base := cycle*cycleLen - s.phase
		for _, d := range []truthDrift{
			{Pos: base, Kind: "global"},
			{Pos: base + localDriftAt, Kind: "local"},
			{Pos: base + globalDriftAt, Kind: "global"},
			{Pos: base + roleSwitchAt, Kind: "role-switch"},
		} {
			if d.Pos > 0 && d.Pos < to {
				out = append(out, d)
			}
		}
	}
	return out
}

// detectorSeedFor is the per-stream RBM-IM seed the monitor derives, so an
// in-process detector and a served one evolve identically.
func detectorSeedFor(id string) int64 {
	return detectorSeed ^ int64(monitor.Hash64(id))
}

// subSeed derives an independent seed from a base seed and a label
// (splitmix64 finaliser).
func subSeed(seed int64, label uint64) int64 {
	z := uint64(seed) + label*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// buildRBMStreams generates the RBM-IM families and assigns every stream a
// family and a phase. Streams of one family start at distinct phases, so
// their drifts fall at different moments of the run.
func buildRBMStreams(seed int64) ([]*rbmStream, error) {
	fams := make([]*family, rbmFamilies)
	for f := range fams {
		fam, err := buildFamily(subSeed(seed, uint64(f)+1))
		if err != nil {
			return nil, err
		}
		fams[f] = fam
	}
	perFamily := rbmStreams / rbmFamilies
	out := make([]*rbmStream, rbmStreams)
	for s := range out {
		out[s] = &rbmStream{
			id:    fmt.Sprintf("rbm-%03d", s),
			fam:   fams[s%rbmFamilies],
			phase: (s / rbmFamilies) * (cycleLen / perFamily),
		}
	}
	return out, nil
}

// buildFamily generates one cycle: concept A until globalDriftAt, concept
// B after it, the two smallest classes relocated from localDriftAt on, and
// the class roles rotated from roleSwitchAt on. Every stage is one of the
// repository's own generators or stream wrappers; positions are in
// emission coordinates, so the ground truth is exact.
func buildFamily(seed int64) (*family, error) {
	conceptA, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: subSeed(seed, 1)}, 3, 0.08)
	if err != nil {
		return nil, err
	}
	conceptB, err := synth.NewRBF(synth.Config{Features: features, Classes: classes, Seed: subSeed(seed, 2)}, 3, 0.08)
	if err != nil {
		return nil, err
	}
	prior := stream.NewStaticSkew(classes, imbalanceRatio).Distribution(0)
	src := stream.NewLocalDriftInjector(&switchStream{
		a:  stream.NewImbalanceWrapper(conceptA, &rotatingSkew{prior: prior}, subSeed(seed, 3)),
		b:  stream.NewImbalanceWrapper(conceptB, &rotatingSkew{prior: prior, offset: globalDriftAt}, subSeed(seed, 4)),
		at: globalDriftAt,
	}, []int{classes - 2, classes - 1}, stream.Sudden, localDriftAt, 0, subSeed(seed, 5))
	slab := make([]float64, cycleLen*features)
	fam := &family{obs: make([]detectors.Observation, cycleLen)}
	for i := range fam.obs {
		in := src.Next()
		x := slab[i*features : (i+1)*features : (i+1)*features]
		copy(x, in.X)
		fam.obs[i] = detectors.Observation{X: x, TrueClass: in.Y, Predicted: in.Y}
	}
	return fam, nil
}

// switchStream emits from a until `at` emissions have passed, then from b.
type switchStream struct {
	a, b stream.Stream
	at   int
	t    int
}

func (s *switchStream) Schema() stream.Schema { return s.a.Schema() }

func (s *switchStream) Next() stream.Instance {
	s.t++
	if s.t <= s.at {
		return s.a.Next()
	}
	return s.b.Next()
}

// rotatingSkew is a static class prior whose roles rotate by one class
// from cycle position roleSwitchAt on; offset maps the wrapper's own clock
// to cycle positions.
type rotatingSkew struct {
	prior   []float64
	rotated []float64
	offset  int
}

func (r *rotatingSkew) Distribution(t int) []float64 {
	if t+r.offset < roleSwitchAt {
		return r.prior
	}
	if r.rotated == nil {
		r.rotated = make([]float64, len(r.prior))
		for k, p := range r.prior {
			r.rotated[(k+1)%len(r.prior)] = p
		}
	}
	return r.rotated
}

// DDM-OCI stream inputs (wire-single). The harness plays the classifier:
// each observation carries a true class drawn from the skewed prior and a
// prediction that is right with the class's current recall. Recall drops
// at known positions of each stream's cycle.
const (
	ddmStreams  = 1280
	ddmFamilies = ddmStreams
	ddmCycle    = 1024
	ddmXPool    = 1024
	// Recall drops: all classes at ddmGlobalAt, the two mid-sized minority
	// classes at ddmLocalAt; both recover ddmRecover observations later,
	// which is also the window in which an event counts as the detection.
	ddmGlobalAt = ddmCycle / 4
	ddmLocalAt  = 3 * ddmCycle / 4
	ddmRecover  = ddmCycle / 4
)

// ddmLocalClasses are the minority classes whose recall drops locally.
var ddmLocalClasses = []int{2, 3}

// ddmLabels is one family cycle of (true, predicted) label pairs.
type ddmLabels struct {
	y, pred []uint8
}

// ddmInputs holds every wire-single stream's inputs: label cycles per
// family and a shared pool of feature vectors (DDM-OCI reads only the
// labels; X is sent so the wire carries the canonical V=20 payload).
type ddmInputs struct {
	ids   []string
	fams  []ddmLabels
	phase []int
	xpool [][]float64
}

func buildDDMInputs(seed int64) *ddmInputs {
	in := &ddmInputs{
		ids:   make([]string, ddmStreams),
		fams:  make([]ddmLabels, ddmFamilies),
		phase: make([]int, ddmStreams),
		xpool: make([][]float64, ddmXPool),
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 101)))
	for i := range in.xpool {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.Float64()
		}
		in.xpool[i] = x
	}
	prior := stream.NewStaticSkew(classes, imbalanceRatio).Distribution(0)
	for f := range in.fams {
		frng := rand.New(rand.NewSource(subSeed(seed, 200+uint64(f))))
		l := ddmLabels{y: make([]uint8, ddmCycle), pred: make([]uint8, ddmCycle)}
		for i := 0; i < ddmCycle; i++ {
			u, y := frng.Float64(), classes-1
			for k, p := range prior {
				if u < p {
					y = k
					break
				}
				u -= p
			}
			pred := y
			if frng.Float64() >= ddmRecall(i, y) {
				pred = (y + 1 + frng.Intn(classes-1)) % classes
			}
			l.y[i], l.pred[i] = uint8(y), uint8(pred)
		}
		in.fams[f] = l
	}
	for s := range in.ids {
		in.ids[s] = fmt.Sprintf("ddm-%04d", s)
		in.phase[s] = int(subSeed(seed, 300+uint64(s)) & (ddmCycle - 1))
	}
	return in
}

// ddmRecall is the simulated classifier's recall for class y at cycle
// position i.
func ddmRecall(i, y int) float64 {
	switch {
	case i >= ddmGlobalAt && i < ddmGlobalAt+ddmRecover:
		return 0.35
	case i >= ddmLocalAt && i < ddmLocalAt+ddmRecover && slices.Contains(ddmLocalClasses, y):
		return 0.2
	}
	return 0.92
}

// obs returns stream s's observation at stream position pos.
func (in *ddmInputs) obs(s, pos int) detectors.Observation {
	l := &in.fams[s%ddmFamilies]
	i := (in.phase[s] + pos) % ddmCycle
	return detectors.Observation{
		X:         in.xpool[(s*31+pos)%ddmXPool],
		TrueClass: int(l.y[i]),
		Predicted: int(l.pred[i]),
	}
}

// drifts lists stream s's recall drops at positions before to.
func (in *ddmInputs) drifts(s, to int) []truthDrift {
	var out []truthDrift
	for cycle := in.phase[s] / ddmCycle; cycle*ddmCycle-in.phase[s] < to; cycle++ {
		base := cycle*ddmCycle - in.phase[s]
		for _, d := range []truthDrift{
			{Pos: base + ddmGlobalAt, Kind: "global"},
			{Pos: base + ddmLocalAt, Kind: "local"},
		} {
			if d.Pos > 0 && d.Pos < to {
				out = append(out, d)
			}
		}
	}
	return out
}
