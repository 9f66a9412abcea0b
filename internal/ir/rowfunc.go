// The register-program tier on the shared runtime.  A CompiledKernel does
// not schedule itself: each channel program is exposed as a
// liftedkernels.RowFunc, and the liftedkernels runtime — the same row
// strips, cache tiles, sliding-window fusion and scan-order error merging
// the generated kernels run under — renders whole regions from those rows.
// Values, error positions and error messages match the interpreter under
// every ScheduleSpec.
package ir

import (
	"errors"
	"fmt"
	"sync"

	"helium/internal/liftedkernels"
)

// tileL1Budget bounds a row function's register file: rows render in
// chunks narrow enough that the widest channel program's register rows
// fit it, so a full-width strip keeps its working set in L1.  A
// deliberately conservative round number rather than a probed value.
const tileL1Budget = 32 << 10

// SourceError reports a Source without a flat pixel backing.  Region
// rendering addresses pixels by flat index and needs a PlaneSource or an
// InterleavedSource (optionally inside a TableSource); the scalar
// Program.Run and Executor.EvalAt still sample any Source.
type SourceError struct {
	Type string // the source's dynamic type
}

func (e *SourceError) Error() string {
	return fmt.Sprintf("ir: source %s has no flat pixel backing; region rendering needs a PlaneSource or InterleavedSource", e.Type)
}

// ImageOf maps a flat-backed source onto the runtime's Image geometry:
// planes and interleaved images alias their backing, and a TableSource
// binds its table as the Image's Tbl.
func ImageOf(src Source) (*liftedkernels.Image, error) {
	switch s := src.(type) {
	case PlaneSource:
		pix, base, stride := s.P.Flat()
		return &liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: 1}, nil
	case InterleavedSource:
		pix, base, stride, pixStep := s.Im.Flat()
		return &liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: pixStep, ChanStep: 1}, nil
	case TableSource:
		img, err := ImageOf(s.Src)
		if err != nil {
			return nil, err
		}
		img.Tbl = s.Tbl
		return img, nil
	}
	return nil, &SourceError{Type: fmt.Sprintf("%T", src)}
}

// Runtime returns the kernel as a single-stage runtime kernel.  Its rows
// are the compiled channel programs, so it renders under any ScheduleSpec
// and is safe for concurrent use.
func (ck *CompiledKernel) Runtime() *liftedkernels.Kernel {
	return &liftedkernels.Kernel{
		Name:     ck.Name,
		Channels: ck.Channels,
		OriginX:  ck.OriginX, OriginY: ck.OriginY,
		DefaultWidth: ck.OutWidth, DefaultHeight: ck.OutHeight,
		LaneBits: ck.laneBits(),
		Rows:     ck.rows,
	}
}

// Pipeline assembles compiled stencil stages, in execution order, into one
// multi-stage runtime kernel for sliding-window streaming, named after the
// final stage.  The stages' extents are their lifted ones; the runtime
// tracks any final extent by each stage's delta to the last.  Stages a
// sliding window cannot schedule are rejected: reductions (nil entries),
// index-mapped stages (they read producer rows out of step with the rows
// they emit) and stages reading a stage-input table.  The runtime's
// RingRows checks the rest.
func Pipeline(stages []*CompiledKernel) (*liftedkernels.Kernel, error) {
	if len(stages) < 2 {
		return nil, fmt.Errorf("ir: fusion needs at least 2 stages, got %d", len(stages))
	}
	for i, ck := range stages {
		switch {
		case ck == nil:
			return nil, fmt.Errorf("ir: fusion stage %d is not a stencil", i)
		case ck.Mapped():
			return nil, fmt.Errorf("ir: fusion stage %d has a non-identity index map; mapped stages do not stream", i)
		case ck.usesTableIn():
			return nil, fmt.Errorf("ir: fusion stage %d reads a stage-input table; reduction consumers do not stream", i)
		}
	}
	final := stages[len(stages)-1]
	k := &liftedkernels.Kernel{
		Name: final.Name, Channels: final.Channels,
		DefaultWidth: final.OutWidth, DefaultHeight: final.OutHeight,
	}
	for _, ck := range stages {
		g := ck.readFootprint()
		k.Stages = append(k.Stages, liftedkernels.StageSpec{
			Channels: ck.Channels,
			OriginX:  ck.OriginX, OriginY: ck.OriginY,
			DW: ck.OutWidth - final.OutWidth, DH: ck.OutHeight - final.OutHeight,
			MinDY: g.loY, MaxDY: g.hiY, MinDX: g.loX, MaxDX: g.hiX,
			LaneBits: ck.laneBits(),
			Rows:     ck.rows,
		})
	}
	return k, nil
}

// StageError re-attributes a Pipeline row fault to the failing stage's own
// kernel — the text the materializing chain and the interpreter report;
// any other error passes through.
func StageError(stages []*CompiledKernel, err error) error {
	var re *liftedkernels.RowError
	if errors.As(err, &re) && re.Stage >= 0 && re.Stage < len(stages) {
		return fmt.Errorf("ir: kernel %s at (%d,%d,%d): %w", stages[re.Stage].Name, re.X, re.Y, re.C, re.Err)
	}
	return err
}

// laneBits lists each channel program's row lane width.
func (ck *CompiledKernel) laneBits() []int {
	bits := make([]int, len(ck.Progs))
	for c, p := range ck.Progs {
		bits[c] = p.LaneBits()
	}
	return bits
}

// fuseGeom is a stage's read footprint: the rows and columns of its input
// that its whole output row y (respectively column x) depends on, origins
// applied.
type fuseGeom struct {
	loY, hiY int // input rows read for output row y: [y+loY, y+hiY]
	loX, hiX int // input columns read for output column x: [x+loX, x+hiX]
}

// readFootprint collects the kernel's tap bounds across every channel
// program, including taps fused into sums.  Dead instructions are skipped
// exactly as the executors skip them (fault-capable loads are never
// marked dead, so no observable tap is missed).
func (ck *CompiledKernel) readFootprint() fuseGeom {
	minDX, maxDX, minDY, maxDY := 0, 0, 0, 0
	first := true
	see := func(dx, dy int32) {
		if first {
			minDX, maxDX, minDY, maxDY = int(dx), int(dx), int(dy), int(dy)
			first = false
			return
		}
		minDX, maxDX = min(minDX, int(dx)), max(maxDX, int(dx))
		minDY, maxDY = min(minDY, int(dy)), max(maxDY, int(dy))
	}
	for _, p := range ck.Progs {
		for i := range p.insts {
			in := &p.insts[i]
			if in.dead {
				continue
			}
			switch in.op {
			case OpLoad:
				see(in.dx, in.dy)
			case opSumTaps:
				for _, t := range in.taps {
					see(t.dx, t.dy)
				}
			}
		}
	}
	return fuseGeom{
		loY: ck.OriginY + minDY, hiY: ck.OriginY + maxDY,
		loX: ck.OriginX + minDX, hiX: ck.OriginX + maxDX,
	}
}

// rowFuncs exposes every channel program as a runtime row function.  The
// chunk width is shared: the widest program's register rows fit the L1
// budget (narrow lanes buy proportionally wider chunks).
func (ck *CompiledKernel) rowFuncs() []liftedkernels.RowFunc {
	chunk := ck.ChunkWidth()
	xstep := 1
	num, den, _ := ck.MapX.Norm()
	if den == 1 {
		// An integral x-map keeps row execution vectorized at a constant
		// input stride; fractional maps take the per-sample path instead.
		xstep = num
	}
	fns := make([]liftedkernels.RowFunc, len(ck.Progs))
	for c, p := range ck.Progs {
		cr := &channelRows{ck: ck, p: p, c: c, chunk: chunk, xstep: xstep, fracX: den != 1}
		fns[c] = cr.row
	}
	return fns
}

// ChunkWidth is how many samples of a row the kernel's row functions
// render at once: the widest chunk whose register rows, for the widest
// channel program, fit the L1 budget (never below 64 samples).
func (ck *CompiledKernel) ChunkWidth() int {
	regBytes := 1
	for _, p := range ck.Progs {
		regBytes = max(regBytes, p.numRegs*p.width.laneBits/8)
	}
	return max(tileL1Budget/regBytes, 64)
}

// channelRows is one channel program behind the runtime's RowFunc shape.
// The runtime calls a row function from several workers at once, and row
// executors are mutable, so every call takes its own rowState from the
// pool — a sync.Pool, whose per-P caches keep concurrent workers off a
// shared lock.
type channelRows struct {
	ck           *CompiledKernel
	p            *Program
	c            int
	chunk, xstep int
	fracX        bool
	pool         sync.Pool
}

// rowState is one caller's execution state: the binding of the image it
// last rendered and the executors whose tap offsets were resolved against
// that binding's geometry.
type rowState struct {
	bd     binding
	exec   rowExec    // built on first use, rebuilt for a wider chunk
	width  int        // samples exec's register rows hold
	scalar *progState // the per-sample path of fractional x-maps
}

// row is the liftedkernels.RowFunc: it renders output samples [0, n) of
// input row y into dst[x*step], xbase being the input-x of sample 0.
func (cr *channelRows) row(dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
	rs, _ := cr.pool.Get().(*rowState)
	if rs == nil {
		rs = new(rowState)
	}
	x, err := cr.render(rs, dst, step, img, y, xbase, n)
	// A pooled state must not keep the caller's pixels or table alive.
	rs.bd.pix, rs.bd.tbl = nil, nil
	cr.pool.Put(rs)
	return x, err
}

func (cr *channelRows) render(rs *rowState, dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
	bd := &rs.bd
	retap := bd.stride != img.Stride || bd.pixStep != img.PixStep || bd.chanStep != img.ChanStep
	*bd = binding{pix: img.Pix, base: img.Base, stride: img.Stride, pixStep: img.PixStep,
		chanStep: img.ChanStep, xstep: cr.xstep, tbl: img.Tbl}
	if retap {
		// Ring images and inputs differ in geometry; Base moves freely.
		if rs.exec != nil {
			rs.exec.retap()
		}
		if rs.scalar != nil {
			rs.scalar.set(cr.p, bd)
		}
	}
	ck := cr.ck
	if ck.Mapped() {
		// The runtime passes origin-shifted output coordinates, like the
		// generated rows; recover the output ones and apply the maps.
		y = ck.MapY.Apply(y-ck.OriginY) + ck.OriginY
		ox := xbase - ck.OriginX
		if cr.fracX {
			return cr.renderScalar(rs, dst, step, y, ox, n)
		}
		xbase = ck.MapX.Apply(ox) + ck.OriginX
	}
	for x0 := 0; x0 < n; x0 += cr.chunk {
		w := min(cr.chunk, n-x0)
		if rs.exec == nil || rs.width < w {
			rs.exec, rs.width = newRowExec(cr.p, bd, w), w
		}
		if x, err := rs.exec.runRow(xbase+x0*cr.xstep, y, cr.c, w); err != nil {
			return x0 + x, err
		}
		rs.exec.storeRow(dst[x0*step:], step, w)
	}
	return -1, nil
}

// renderScalar renders a fractional x-map row one sample at a time through
// the scalar program: an upsample repeats input pixels at a non-uniform
// stride, which the row executors' constant advance cannot express.
func (cr *channelRows) renderScalar(rs *rowState, dst []byte, step, y, ox, n int) (int, error) {
	if rs.scalar == nil {
		rs.scalar = cr.p.newState(&rs.bd)
	}
	ck := cr.ck
	for x := 0; x < n; x++ {
		v, err := cr.p.run(&rs.bd, rs.scalar, ck.MapX.Apply(ox+x)+ck.OriginX, y, cr.c)
		if err != nil {
			return x, err
		}
		dst[x*step] = uint8(v)
	}
	return -1, nil
}
