package ir

import (
	"bytes"
	"fmt"
	"testing"

	"helium/internal/image"
	"helium/internal/liftedkernels"
)

// evalFused streams a compiled chain through the runtime's sliding-window
// executor as one Pipeline, rendering the final stage at its own extents.
func evalFused(stages []*CompiledKernel, src Source, spec liftedkernels.ScheduleSpec) ([]byte, error) {
	k, err := Pipeline(stages)
	if err != nil {
		return nil, err
	}
	img, err := ImageOf(src)
	if err != nil {
		return nil, err
	}
	final := stages[len(stages)-1]
	spec.Fusion = "slidingWindow"
	out, err := k.EvalSched(img, final.OutWidth, final.OutHeight, spec)
	return out, StageError(stages, err)
}

// fusedRingRows is the runtime's ring sizing for a chain at its own
// extents, or why the chain cannot stream.
func fusedRingRows(stages []*CompiledKernel) ([]int, error) {
	k, err := Pipeline(stages)
	if err != nil {
		return nil, err
	}
	final := stages[len(stages)-1]
	return k.RingRows(final.OutWidth, final.OutHeight)
}

// materializeChain is the reference the fused executor must match: every
// stage renders fully (serial), intermediates become exact-extent planes,
// and an erroring stage aborts the chain — the same structure as lift's
// chain evaluator.
func materializeChain(stages []*CompiledKernel, src Source) ([]byte, error) {
	var out []byte
	var err error
	for i, ck := range stages {
		out, err = ck.Eval(src)
		if err != nil {
			return nil, err
		}
		if i+1 < len(stages) {
			p := image.NewPlane(ck.OutWidth, ck.OutHeight, 0)
			p.SetInterior(out)
			src = PlaneSource{P: p}
		}
	}
	return out, nil
}

// exprBounds walks a tree for its tap offset bounding box.
func exprBounds(e *Expr) (minDX, maxDX, minDY, maxDY int) {
	first := true
	var walk func(*Expr)
	walk = func(e *Expr) {
		if e.Op == OpLoad {
			if first {
				minDX, maxDX, minDY, maxDY = e.DX, e.DX, e.DY, e.DY
				first = false
			} else {
				minDX, maxDX = min(minDX, e.DX), max(maxDX, e.DX)
				minDY, maxDY = min(minDY, e.DY), max(maxDY, e.DY)
			}
		}
		for _, a := range e.Args {
			walk(a)
		}
	}
	walk(e)
	return
}

// chainFromTrees builds a compiled pipeline whose final stage renders
// outW x outH: each stage's origin recenters its taps nonnegative and
// every producer's extent is exactly what its consumer touches, the same
// shape the lifter reconstructs.
func chainFromTrees(t *testing.T, trees []*Expr, outW, outH int) []*CompiledKernel {
	t.Helper()
	n := len(trees)
	stages := make([]*CompiledKernel, n)
	w, h := outW, outH
	for i := n - 1; i >= 0; i-- {
		minDX, maxDX, minDY, maxDY := exprBounds(trees[i])
		k := &Kernel{
			Name:     fmt.Sprintf("chain#%d", i),
			OutWidth: w, OutHeight: h, Channels: 1,
			OriginX: -minDX, OriginY: -minDY,
			Trees: []*Expr{trees[i]},
		}
		ck, err := k.Compile()
		if err != nil {
			t.Fatalf("stage %d: Compile: %v", i, err)
		}
		stages[i] = ck
		// The producer must cover this stage's whole footprint.
		w += maxDX - minDX
		h += maxDY - minDY
	}
	return stages
}

// fuseSource is the deterministic padded input plane of the fusion tests;
// generous padding keeps stage-0 taps in range unless a test wants
// faults.
func fuseSource(seed uint64, w, h, pad int) *image.Plane {
	p := image.NewPlane(w, h, pad)
	p.FillPattern(seed)
	return p
}

// zext wraps a byte tap to a 32-bit lane.
func zext(e *Expr) *Expr { return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{e}} }

// fuseTreeGen builds random single-channel stage trees with bounded tap
// footprints and optional fault-capable ops (division by a data-dependent
// value, table lookups that can range-fault).
type fuseTreeGen struct {
	r      *testRNG
	faults bool
}

func (g *fuseTreeGen) tap() *Expr {
	return zext(Load(g.r.intn(3)-1, g.r.intn(5)-2, 0))
}

func (g *fuseTreeGen) tree(depth int) *Expr {
	if depth <= 0 {
		if g.r.intn(3) == 0 {
			return Const(int64(g.r.intn(9) + 1))
		}
		return g.tap()
	}
	switch g.r.intn(8) {
	case 0:
		return Bin(OpAdd, 4, g.tree(depth-1), g.tree(depth-1))
	case 1:
		return Bin(OpMul, 4, g.tree(depth-1), Const(int64(g.r.intn(5)+1)))
	case 2:
		return Bin(OpSub, 4, g.tree(depth-1), g.tree(depth-1))
	case 3:
		return &Expr{Op: OpMin, Width: 4, Args: []*Expr{g.tree(depth - 1), Const(255)}}
	case 4:
		return &Expr{Op: OpMax, Width: 4, Args: []*Expr{g.tree(depth - 1), Const(0)}}
	case 5:
		return Bin(OpDiv, 4, g.tree(depth-1), Const(int64(g.r.intn(7)+2)))
	case 6:
		if g.faults {
			// Divisor is a wrapping difference of taps: zero whenever two
			// neighborhood samples collide, a data-dependent fault.
			return Bin(OpDiv, 4, g.tree(depth-1), Bin(OpSub, 4, g.tap(), g.tap()))
		}
		return Bin(OpAnd, 4, g.tree(depth-1), Const(255))
	default:
		if g.faults && g.r.intn(2) == 0 {
			// A short table faults on bright samples.
			tab := make([]byte, 180)
			for i := range tab {
				tab[i] = byte(i * 3)
			}
			return &Expr{Op: OpTable, Table: tab, Elem: 1, Args: []*Expr{Load(0, g.r.intn(3)-1, 0)}}
		}
		return g.tap()
	}
}

// TestFusedRandomChains is the fusion property test: random 2-4 stage
// pipelines, evaluated materializing and fused
// and worker counts, must agree bit-exactly — values, error positions and
// error messages.
func TestFusedRandomChains(t *testing.T) {
	const outW, outH = 13, 11
	values, faults := 0, 0
	for i := 0; i < 120; i++ {
		r := testRNG(uint64(i)*2654435761 + 17)
		g := &fuseTreeGen{r: &r, faults: i%3 != 0}
		nStages := 2 + r.intn(3)
		trees := make([]*Expr, nStages)
		for s := range trees {
			trees[s] = g.tree(2 + r.intn(2))
		}
		stages := chainFromTrees(t, trees, outW, outH)
		src := PlaneSource{P: fuseSource(uint64(i), stages[0].OutWidth+4, stages[0].OutHeight+4, 4)}

		want, werr := materializeChain(stages, src)
		if werr != nil {
			faults++
		} else {
			values++
		}
		for _, workers := range []int{1, 2, 5} {
			got, gerr := evalFused(stages, src, liftedkernels.ScheduleSpec{Workers: workers})
			id := fmt.Sprintf("chain %d (%d stages) workers=%d", i, nStages, workers)
			if werr != nil {
				if gerr == nil {
					t.Fatalf("%s: fused succeeded, materializing errors with %v", id, werr)
				}
				if gerr.Error() != werr.Error() {
					t.Fatalf("%s: fused error %q, want %q", id, gerr, werr)
				}
				continue
			}
			if gerr != nil {
				t.Fatalf("%s: fused error %v, materializing succeeds", id, gerr)
			}
			if !bytes.Equal(got, want) {
				bad := 0
				for j := range got {
					if got[j] != want[j] {
						bad++
					}
				}
				t.Fatalf("%s: fused output differs on %d/%d samples", id, bad, len(want))
			}
		}
	}
	if values < 20 || faults < 20 {
		t.Fatalf("fusion corpus is unbalanced: %d value chains, %d faulting chains", values, faults)
	}
	t.Logf("fused differential: %d chains (%d values, %d faults) bit-exact", values+faults, values, faults)
}

// TestFusedProducerErrorDominates pins the error-ordering semantics the
// drain pass exists for: when a consumer stage faults early but its
// producer faults anywhere at all, the chain must report the producer's
// error — the materializing executor never runs the consumer in that
// case.
func TestFusedProducerErrorDominates(t *testing.T) {
	const outW, outH = 10, 8
	// Stage 1 (consumer) table-faults at its very first sample; stage 0
	// (producer) divides by in(x,y)-K, faulting only near the bottom of
	// its extent — far later in fused production order.
	srcPlane := fuseSource(99, outW+8, outH+8, 4)

	tinyTab := []byte{1, 2, 3, 4}
	consumer := &Expr{Op: OpTable, Table: tinyTab, Elem: 1, Args: []*Expr{Load(0, 1, 0)}}

	// Pick K = the value of a sample in the producer's LAST row so the
	// producer's first fault lands there.
	prodH := outH + 1 // consumer taps dy in [0,1]
	k := int64(srcPlane.At(3, prodH-1))
	producer := Bin(OpDiv, 4, Const(1000), Bin(OpSub, 4, zext(Load(0, 0, 0)), Const(k)))

	stages := chainFromTrees(t, []*Expr{producer, consumer}, outW, outH)
	src := PlaneSource{P: srcPlane}

	want, werr := materializeChain(stages, src)
	if werr == nil {
		t.Fatalf("reference chain did not fault (want a producer fault); out len %d", len(want))
	}

	for _, workers := range []int{1, 3} {
		_, gerr := evalFused(stages, src, liftedkernels.ScheduleSpec{Workers: workers})
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("workers=%d: fused error %q, want producer-dominated %q", workers, gerr, werr)
		}
	}

	// Sanity: the consumer really does fault first in production order
	// when the producer is clean.
	clean := chainFromTrees(t, []*Expr{zext(Load(0, 0, 0)), consumer}, outW, outH)
	_, cerr := materializeChain(clean, src)
	if cerr == nil {
		t.Fatal("consumer stage did not fault on its own")
	}
	_, ferr := evalFused(clean, src, liftedkernels.ScheduleSpec{})
	if ferr == nil || ferr.Error() != cerr.Error() {
		t.Fatalf("consumer-only fault: fused %q, want %q", ferr, cerr)
	}
}

// TestFusedRingStaysSmall pins the whole point of fusion: ring buffers
// track the consumer footprint, not the intermediate extent.
func TestFusedRingStaysSmall(t *testing.T) {
	const outW, outH = 16, 64
	trees := []*Expr{
		Bin(OpAdd, 4, zext(Load(0, -1, 0)), zext(Load(0, 1, 0))), // vertical pass
		Bin(OpAdd, 4, zext(Load(-1, 0, 0)), zext(Load(1, 0, 0))), // horizontal pass
	}
	stages := chainFromTrees(t, trees, outW, outH)
	rings, err := fusedRingRows(stages)
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != 1 {
		t.Fatalf("rings = %v, want one gap", rings)
	}
	if rings[0] != 1 {
		// The horizontal pass reads a single tmp row per output row.
		t.Fatalf("minimal ring = %d rows, want 1", rings[0])
	}
	if rings[0] >= stages[0].OutHeight {
		t.Fatalf("ring (%d rows) is as tall as the intermediate (%d rows)", rings[0], stages[0].OutHeight)
	}
}

// TestFusedRejectsUnfusable pins the validation errors.
func TestFusedRejectsUnfusable(t *testing.T) {
	single := chainFromTrees(t, []*Expr{zext(Load(0, 0, 0))}, 8, 8)
	if _, err := fusedRingRows(single); err == nil {
		t.Fatal("single-stage chain must not fuse")
	}
	stages := chainFromTrees(t, []*Expr{zext(Load(0, 0, 0)), zext(Load(0, 0, 0))}, 8, 8)
	if _, err := fusedRingRows([]*CompiledKernel{stages[0], nil}); err == nil {
		t.Fatal("nil (reduction) stage must not fuse")
	}
	// A consumer tapping outside its producer's extent must be rejected:
	// shrink the producer below the consumer's footprint.
	bad := chainFromTrees(t, []*Expr{zext(Load(0, 0, 0)), Bin(OpAdd, 4, zext(Load(0, -1, 0)), zext(Load(0, 1, 0)))}, 8, 8)
	bad[0].OutHeight = 4
	if _, err := fusedRingRows(bad); err == nil {
		t.Fatal("footprint outside the producer must not fuse")
	}
}

// TestFusedUnconsumedLowProducerRows pins the first-strip coverage rule:
// when a consumer's footprint starts below its producer's row 0 (positive
// MinDY), the producer rows no consumer ever pulls must still be
// computed — the materializing chain computes every producer row, and a
// fault confined to one of them must not vanish under fusion.
func TestFusedUnconsumedLowProducerRows(t *testing.T) {
	const outW, outH = 8, 8
	// Producer reads src at dy=-1 with origin 0: its row 0 reads source
	// row -1, which the unpadded plane cannot back, so the producer
	// faults at (0,0) — a row the consumer (origin 1, tap dy=0, so
	// footprint rows [1, 1+outH)) never consumes.
	p := &Kernel{Name: "p", OutWidth: outW, OutHeight: outH + 1, Channels: 1,
		Trees: []*Expr{zext(Load(0, -1, 0))}}
	c := &Kernel{Name: "c", OutWidth: outW, OutHeight: outH, Channels: 1, OriginY: 1,
		Trees: []*Expr{zext(Load(0, 0, 0))}}
	pk, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := c.Compile()
	if err != nil {
		t.Fatal(err)
	}
	stages := []*CompiledKernel{pk, ck}
	plane := image.NewPlane(outW, outH+1, 0)
	plane.FillPattern(7)
	src := PlaneSource{P: plane}

	_, werr := materializeChain(stages, src)
	if werr == nil {
		t.Fatal("materializing chain did not fault on the unconsumed producer row")
	}
	for _, workers := range []int{1, 2, 4} {
		_, gerr := evalFused(stages, src, liftedkernels.ScheduleSpec{Workers: workers})
		if gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("workers=%d: fused error %q, want %q", workers, gerr, werr)
		}
	}
}
