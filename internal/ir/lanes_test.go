package ir

import (
	"bytes"
	"sync/atomic"
	"testing"

	"helium/internal/image"
	"helium/internal/liftedkernels"
)

// narrowTreeGen builds random trees whose values provably stay small, so
// the width pass selects 8/16/32-bit lanes — the population the lane
// executor differential needs.  (The broad generator in compile_test.go
// mostly produces unbounded 32-bit arithmetic, which stays on the 64-bit
// reference path.)
type narrowTreeGen struct {
	r *testRNG
}

func (g *narrowTreeGen) byteLeaf() *Expr {
	if g.r.intn(3) == 0 {
		return Const(int64(g.r.intn(256)))
	}
	return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(g.r.intn(5)-2, g.r.intn(5)-2, 0)}}
}

func (g *narrowTreeGen) expr(depth int) *Expr {
	if depth <= 0 {
		return g.byteLeaf()
	}
	w := 4
	switch g.r.intn(12) {
	case 0: // tap sum, the stencil workhorse
		n := 2 + g.r.intn(6)
		args := make([]*Expr, n)
		for i := range args {
			args[i] = g.byteLeaf()
		}
		return &Expr{Op: OpAdd, Width: w, Args: args}
	case 1:
		return Bin(OpMul, w, g.expr(depth-1), Const(int64(1+g.r.intn(9))))
	case 2:
		return Bin(OpDiv, w, g.expr(depth-1), Const(int64(2+g.r.intn(15))))
	case 3:
		return Bin(OpMod, w, g.expr(depth-1), Const(int64(2+g.r.intn(15))))
	case 4:
		return Bin(OpShr, w, g.expr(depth-1), Const(int64(g.r.intn(5))))
	case 5:
		return Bin(OpMin, w, g.expr(depth-1), Const(int64(g.r.intn(4096))))
	case 6:
		return Bin(OpMax, w, g.expr(depth-1), Const(int64(g.r.intn(256))))
	case 7:
		return Bin(OpAnd, w, g.expr(depth-1), Const(int64(g.r.intn(65536))))
	case 8:
		return Bin(OpXor, 2, g.expr(depth-1), g.expr(depth-1))
	case 9:
		return Bin(OpOr, 2, g.expr(depth-1), g.expr(depth-1))
	case 10: // byte table lookup, always in range
		table := make([]byte, 256)
		for i := range table {
			table[i] = byte(g.r.next())
		}
		idx := &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{g.expr(depth - 1)}}
		return &Expr{Op: OpTable, Table: table, Elem: 1, Args: []*Expr{idx}}
	default:
		return &Expr{Op: OpExtract, Width: 1, SrcWidth: 4, Val: int64(g.r.intn(2)), Args: []*Expr{g.expr(depth - 1)}}
	}
}

// TestLaneRowDifferential drives the width-specialized row executors
// against the interpreter on trees the width pass can narrow: outputs
// rendered through the runtime under every region schedule (and the
// scalar executor's, on a generic source) must match byte for byte, and
// the corpus must actually select narrow lanes rather than silently
// falling back to 64-bit rows.
func TestLaneRowDifferential(t *testing.T) {
	plane := diffPlane()
	src := PlaneSource{P: plane}
	generic := opaqueSource{s: src}
	laneCounts := map[int]int{}
	for seed := uint64(0); seed < 250; seed++ {
		r := testRNG(seed * 977)
		g := &narrowTreeGen{r: &r}
		tree := g.expr(3)
		k := &Kernel{Name: "lanediff", OutWidth: 6, OutHeight: 4, Channels: 1,
			OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
		want, werr := k.Eval(src)
		if werr != nil {
			t.Fatalf("seed %d: narrow tree unexpectedly faults: %v\ntree: %s", seed, werr, tree)
		}
		ck, err := k.Compile()
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		laneCounts[ck.Progs[0].LaneBits()]++
		for _, spec := range regionSpecs {
			got, gerr := evalSpec(ck, src, spec)
			if gerr != nil {
				t.Fatalf("seed %d %+v: compiled eval: %v\ntree: %s\n%s", seed, spec, gerr, tree, ck.Progs[0].Disasm())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d %+v: lane output differs from interpreter (lanes=%d)\ntree: %s\n%s",
					seed, spec, ck.Progs[0].LaneBits(), tree, ck.Progs[0].Disasm())
			}
		}
		got, gerr := evalScalar(ck, generic)
		if gerr != nil || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: generic scalar output differs (err %v)", seed, gerr)
		}
	}
	if laneCounts[8]+laneCounts[16]+laneCounts[32] < 150 {
		t.Fatalf("width pass narrowed too few programs: %v", laneCounts)
	}
	if laneCounts[8] == 0 || laneCounts[16] == 0 {
		t.Fatalf("lane corpus must cover 8- and 16-bit paths: %v", laneCounts)
	}
	t.Logf("lane widths over corpus: %v", laneCounts)
}

// coordPlane is a deterministic flat input big enough for wide-image
// tests, with a one-pixel border for 3x3 taps.
func coordPlane(w, h int) PlaneSource {
	p := image.NewPlane(w, h, 1)
	for y := -1; y <= h; y++ {
		for x := -1; x <= w; x++ {
			p.Set(x, y, uint8(x*31^y*17))
		}
	}
	return PlaneSource{P: p}
}

// wideKernel builds a kernel big enough that the runtime splits it into
// many strips, and its rows into several register chunks.
func wideKernel(tree *Expr) *Kernel {
	return &Kernel{Name: "wide", OutWidth: 1500, OutHeight: 900, Channels: 1,
		OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
}

// wideSpecs are the row-strip schedules the wide-image tests render
// under, across worker counts.
func wideSpecs() []liftedkernels.ScheduleSpec {
	var specs []liftedkernels.ScheduleSpec
	for _, workers := range []int{1, 2, 3, 5, 8, 16} {
		specs = append(specs, liftedkernels.ScheduleSpec{Workers: workers})
	}
	return specs
}

// TestStripEvalMatchesSerial checks the runtime's row-strip driver over
// the compiled rows against the serial render on an image tall enough
// for many strips and with rows wider than one register chunk.
func TestStripEvalMatchesSerial(t *testing.T) {
	// Enough distinct subexpressions that the row register file forces
	// chunking in x.
	taps := make([]*Expr, 0, 12)
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			taps = append(taps, &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(dx, dy, 0)}})
		}
	}
	taps = append(taps, Const(4))
	tree := Bin(OpMin, 4,
		Bin(OpDiv, 4, &Expr{Op: OpAdd, Width: 4, Args: taps}, Const(9)),
		Const(255))
	k := wideKernel(tree)
	ck, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if chunk := ck.ChunkWidth(); chunk >= k.OutWidth {
		t.Fatalf("register chunk %d does not split a %d-wide row", chunk, k.OutWidth)
	}
	src := coordPlane(k.OutWidth+2, k.OutHeight+2)
	want, err := ck.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < k.OutHeight; y += 97 {
		for x := 0; x < k.OutWidth; x += 89 {
			v, err := k.EvalAt(src, x, y, 0)
			if err != nil || uint8(v) != want[y*k.OutWidth+x] {
				t.Fatalf("serial render at (%d,%d) = %d, interpreter %d (%v)", x, y, want[y*k.OutWidth+x], v, err)
			}
		}
	}
	for _, spec := range wideSpecs() {
		got, err := evalSpec(ck, src, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: output differs from serial", spec)
		}
	}
}

// TestStripErrorDeterministic pins the runtime's error semantics over the
// compiled rows: a data-dependent fault must be reported at exactly the
// coordinate and with exactly the message the interpreter's serial
// per-sample scan produces, for every worker count, even when the
// faulting sample sits in a late strip or chunk while an earlier-index
// one also faults.
func TestStripErrorDeterministic(t *testing.T) {
	// table has 128 entries, the index is the input byte: every sample
	// whose input is >= 128 faults, which happens all over the grid.
	table := make([]byte, 128)
	for i := range table {
		table[i] = byte(i * 3)
	}
	idx := &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(0, 0, 0)}}
	tree := &Expr{Op: OpTable, Table: table, Elem: 1, Args: []*Expr{idx}}
	k := wideKernel(tree)
	ck, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	src := coordPlane(k.OutWidth+2, k.OutHeight+2)
	_, serr := k.Eval(src)
	if serr == nil {
		t.Fatal("fault kernel must error serially")
	}
	for _, spec := range append(wideSpecs(), liftedkernels.Serial()) {
		_, perr := evalSpec(ck, src, spec)
		if perr == nil {
			t.Fatalf("%+v: fault kernel must error", spec)
		}
		if perr.Error() != serr.Error() {
			t.Fatalf("%+v: error %q differs from serial %q", spec, perr, serr)
		}
	}
}

// concurrency wraps a runtime kernel's rows to record the most row calls
// ever in flight at once.
func concurrency(k *liftedkernels.Kernel) *atomic.Int64 {
	var cur, peak atomic.Int64
	rows := make([]liftedkernels.RowFunc, len(k.Rows))
	for c, row := range k.Rows {
		rows[c] = func(dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
			now := cur.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			defer cur.Add(-1)
			return row(dst, step, img, y, xbase, n)
		}
	}
	k.Rows = rows
	return &peak
}

// TestWorkersCappedByWork pins the worker-count cap of the runtime the
// compiled rows run under: workers never exceed the independent units of
// work — the rows — so a 3-row image never has more than 3 rows in
// flight however many workers are requested, and the capped output still
// matches the serial one.
func TestWorkersCappedByWork(t *testing.T) {
	k := &Kernel{Name: "short", OutWidth: 64, OutHeight: 3, Channels: 1,
		Trees: []*Expr{Load(0, 0, 0)}}
	ck, err := k.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// A wide short image with a fat register file: its rows split into
	// several chunks, but its units of work are still its 3 rows.
	args := make([]*Expr, 0, 40)
	for i := 0; i < 40; i++ {
		args = append(args, Bin(OpMul, 4,
			&Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(i%5-2, i/5%5-2, 0)}},
			&Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(i/25-2, i%25/5-2, 0)}}))
	}
	wide := &Kernel{Name: "wideshort", OutWidth: 1500, OutHeight: 3, Channels: 1,
		OriginX: 2, OriginY: 2, Trees: []*Expr{{Op: OpAdd, Width: 4, Args: args}}}
	wck, err := wide.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if chunk := wck.ChunkWidth(); chunk >= wide.OutWidth {
		t.Fatalf("wide-short kernel renders in one %d-sample chunk; the test needs x-chunking", chunk)
	}
	src := coordPlane(1504, 7)
	img, err := ImageOf(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, kk := range []*CompiledKernel{ck, wck} {
		want, err := kk.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []liftedkernels.ScheduleSpec{
			{Workers: 16},
			{Workers: 0},
		} {
			rk := kk.Runtime()
			peak := concurrency(rk)
			out, err := rk.EvalSched(img, kk.OutWidth, kk.OutHeight, spec)
			if err != nil {
				t.Fatal(err)
			}
			limit := int64(kk.OutHeight)
			if got := peak.Load(); got < 1 || got > limit {
				t.Errorf("%s %+v: %d rows in flight, want within [1, %d]", kk.Name, spec, got, limit)
			}
			if !bytes.Equal(out, want) {
				t.Errorf("%s %+v: capped parallel output differs from serial", kk.Name, spec)
			}
		}
	}
}

// TestFoldedConstantsDoNotWidenLanes pins two compiler interactions the
// width pass depends on: pool constants left behind by constant folding
// (float bit patterns especially) must not inflate the inferred lane
// width, and constant-folded sum operands must merge into the sumtaps
// bias rather than surviving as per-sample register adds.
func TestFoldedConstantsDoNotWidenLanes(t *testing.T) {
	load := func() *Expr {
		return &Expr{Op: OpZExt, Width: 4, SrcWidth: 1, Args: []*Expr{Load(0, 0, 0)}}
	}
	// FPToInt(2.5 + 0.5) folds to the integer 3, leaving float constants
	// in the pool that nothing references.
	folded := &Expr{Op: OpFPToInt, Width: 4, Args: []*Expr{
		{Op: OpFAdd, Args: []*Expr{ConstF(2.5), ConstF(0.5)}}}}
	tree := Bin(OpAdd, 4, load(), folded)
	p, err := CompileExpr(tree)
	if err != nil {
		t.Fatal(err)
	}
	if p.LaneBits() > 16 {
		t.Errorf("folded float constants widened lanes to %d, want <= 16:\n%s", p.LaneBits(), p.Disasm())
	}
	merged := false
	for i := range p.insts {
		if in := &p.insts[i]; in.op == opSumTaps {
			if in.val != 3 || len(in.args) != 1 {
				t.Errorf("folded constant not merged into the sum bias (bias %d, %d register args):\n%s",
					in.val, len(in.args), p.Disasm())
			}
			merged = true
		}
	}
	if !merged {
		t.Fatalf("expected a sumtaps instruction:\n%s", p.Disasm())
	}

	// A float subtree consumed as an integer reads as zero: its (pure)
	// float instructions go dead and must neither widen lanes nor
	// derail row execution; its loads keep their fault checks.
	deadFloat := Bin(OpAdd, 4, load(),
		&Expr{Op: OpIntToFP, SrcWidth: 1, Args: []*Expr{Load(1, 1, 0)}})
	p2, err := CompileExpr(deadFloat)
	if err != nil {
		t.Fatal(err)
	}
	if p2.LaneBits() > 16 {
		t.Errorf("dead float instructions widened lanes to %d, want <= 16:\n%s", p2.LaneBits(), p2.Disasm())
	}
	for _, tree := range []*Expr{tree, deadFloat} {
		k := &Kernel{Name: "fold", OutWidth: 6, OutHeight: 4, Channels: 1,
			OriginX: 1, OriginY: 1, Trees: []*Expr{tree}}
		src := PlaneSource{P: diffPlane()}
		want, err := k.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := k.Compile()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ck.Eval(src)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("narrowed execution differs from interpreter\ntree: %s", tree)
		}
	}
}
