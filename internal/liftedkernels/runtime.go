// Package liftedkernels holds ahead-of-time Go source regenerated from the
// lifted stencil corpus — the reproduction's analogue of the Halide code
// Helium emits.  It is standalone: nothing here imports the lifting
// pipeline, so the package can be vendored into a host application as the
// drop-in replacement for the legacy filter.
//
// The package has two halves.  kernels.go is generated by `helium gen`
// (one registration plus row functions per lifted kernel) and must not be
// edited by hand.  This file, runtime.go, is the hand-written runtime the
// generated half compiles against: the Image geometry, the Kernel driver
// with reference-exact error selection, the ScheduleSpec execution layer
// (worker row strips, sliding-window stage fusion), the reduction driver
// and the shared error constructors.  It is the one scheduling runtime:
// the register-program tier of helium/internal/ir runs here too, its
// channel programs exposed as RowFuncs.
//
// Values, error positions and error messages are bit-identical to the
// helium/internal/ir interpreter and register executors — under every
// ScheduleSpec: a schedule changes only the execution strategy (worker
// count, stage fusion), never the result.  The generator's differential
// tests build this file with freshly generated kernels and enforce this
// with the real toolchain.
package liftedkernels

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Image is a flat 8-bit pixel backing: channel c of pixel (x, y) lives at
// Pix[Base + y*Stride + x*PixStep + c*ChanStep].  Planar layouts use
// PixStep 1 and ChanStep 0; interleaved layouts use PixStep = channels
// and ChanStep 1.
type Image struct {
	Pix                             []byte
	Base, Stride, PixStep, ChanStep int
	// Tbl is the bound stage-input table: the serialized bin table of a
	// reduction-first pipeline, which the consuming stages' lookup
	// instructions index at run time.  Nil for every other kernel shape.
	Tbl []byte
}

// RowFunc renders output samples x in [0, n) of one input row y into
// dst[x*step], xbase being the input-x of output sample 0.  It returns
// the first faulting x and its error, or (-1, nil).
type RowFunc func(dst []byte, step int, img *Image, y, xbase, n int) (int, error)

// RowAllFunc renders ALL channels of one output row into the row-major
// row slice dst, returning the first fault in x-then-c order as
// (x, c, err), or (-1, -1, nil).  The generator emits one when a kernel's
// channel programs are structurally identical, so one body serves every
// channel.
type RowAllFunc func(dst []byte, img *Image, y, xbase, n int) (int, int, error)

// ScheduleSpec selects an execution strategy.  The zero value is the
// production default: GOMAXPROCS workers, materializing stage chaining.
type ScheduleSpec struct {
	// Workers is the row-strip worker count; <= 0 means GOMAXPROCS, 1 is
	// the serial reference.
	Workers int
	// Fusion is the inter-stage strategy of multi-stage pipelines:
	// "" or "materialize" computes every stage fully into a fresh
	// intermediate buffer; "slidingWindow" streams the stages through
	// ring buffers as tall as the consumer's row footprint.
	Fusion string
}

// Serial is the reference schedule: one worker, materializing chaining.
func Serial() ScheduleSpec { return ScheduleSpec{Workers: 1} }

// Kernel is one regenerated stencil kernel.
type Kernel struct {
	Name             string
	Channels         int
	OriginX, OriginY int
	// DefaultWidth and DefaultHeight record the output geometry the
	// kernel was lifted at (the input domain for reductions); Eval
	// accepts any size.
	DefaultWidth, DefaultHeight int
	// LaneBits records the integer width each channel's row loop
	// computes in (8, 16, 32 or 64).
	LaneBits []int
	// Rows holds one row function per channel; RowAll replaces it when
	// the channel programs collapsed into one shared body.
	Rows   []RowFunc
	RowAll RowAllFunc
	// Stages, when non-empty, makes the kernel a multi-stage pipeline:
	// Eval chains the stages and the flat Rows/RowAll fields above are
	// unused.
	Stages []StageSpec
	// Red, when non-nil, makes the kernel a reduction: Eval accumulates
	// over the outW x outH domain (the last stage's output when Stages
	// is non-empty, the input image otherwise) and returns the
	// serialized little-endian bin table.
	Red *ReductionSpec
	// RedFirst reorders a Red+Stages pipeline: the reduction runs FIRST
	// over the input image, its serialized table binds as the stages'
	// table input, and the last stage's pixels are the result.  RedDW and
	// RedDH are the reduction domain extents minus the final output
	// extents.
	RedFirst     bool
	RedDW, RedDH int
	// Sched is the autotuned default schedule (zero when the kernel was
	// generated without one); EvalInto(sc, img, w, h, k.Sched) runs it.
	Sched ScheduleSpec
	// Tuned is always nil: the generator emits no schedule-baked
	// drivers.  Only the perfbench harness still reads the field, which
	// goes with the next change to perfbench.
	Tuned func(sc *Scratch, img *Image, outW, outH int) ([]byte, error)
	// FusedStrip, when non-nil, is the generated footprint-specialized
	// sliding-window strip driver; the fused executor dispatches to it
	// instead of the generic ring interpreter.
	FusedStrip FusedStripFunc
}

// FusedStripFunc streams one worker strip of final-stage rows [s0, s1)
// through a fused pipeline, writing each stage's first error (nil for
// clean stages) into errs.
type FusedStripFunc func(sc *Scratch, img *Image, out []byte, ws, hs []int, s0, s1 int, first, drain bool, errs []*rowErr)

// StageSpec is one stage of a multi-stage pipeline.  DW and DH are the
// stage's output extents minus the final extents (the last stage's for
// stencil pipelines, the reduction domain for pipelines ending in a
// reduction), so intermediate buffer sizes track any requested output
// size.  MinDY and MaxDY bound the input rows the stage reads for output
// row y — [y+MinDY, y+MaxDY], origin included — the footprint the
// sliding-window executor sizes its rings with; MinDX and MaxDX are the
// column counterpart, which fusion validates against the producer width.
type StageSpec struct {
	Channels         int
	OriginX, OriginY int
	DW, DH           int
	MinDY, MaxDY     int
	MinDX, MaxDX     int
	LaneBits         []int
	Rows             []RowFunc
	RowAll           RowAllFunc
}

// ReductionSpec is the accumulate-into-table form: Row accumulates one
// input row into the 4-byte bins, which start from Init (nil = all zero).
// Suffix runs a wraparound prefix sum over the bins after accumulation
// (a cumulative histogram) before serialization.
type ReductionSpec struct {
	Bins   int
	Init   []uint32
	Suffix bool
	Row    func(bins []uint32, img *Image, y, n int) (int, error)
}

// Scratch holds the reusable buffers of EvalInto: the output, stage
// intermediates and fused ring planes, the reduction bins, and per-worker
// sub-scratches for the parallel fused path.  A zero Scratch is ready to
// use; buffers grow on demand and persist, so a caller rendering frames
// in a loop reaches a zero-allocation steady state.  Results returned
// through a Scratch alias its buffers and are only valid until its next
// use.
type Scratch struct {
	out   []byte
	bufs  [][]byte
	imgs  []Image
	errs  []*rowErr
	fs    []fusedStage
	dims  []int
	bins  []uint32
	procs []*Scratch
}

// outBuf returns the reusable result buffer at length n.
func (sc *Scratch) outBuf(n int) []byte {
	if cap(sc.out) < n {
		sc.out = make([]byte, n)
	}
	return sc.out[:n:n]
}

// buf returns the i'th reusable plane buffer at length n (stage
// intermediates, fused ring planes).
func (sc *Scratch) buf(i, n int) []byte {
	for len(sc.bufs) <= i {
		sc.bufs = append(sc.bufs, nil)
	}
	if cap(sc.bufs[i]) < n {
		sc.bufs[i] = make([]byte, n)
	}
	return sc.bufs[i][:n:n]
}

// img returns the i'th reusable Image header; headers live inside the
// scratch so handing out their address does not allocate per eval.
func (sc *Scratch) img(i int) *Image {
	for len(sc.imgs) <= i {
		sc.imgs = append(sc.imgs, Image{})
	}
	return &sc.imgs[i]
}

// errSlots returns n cleared per-stage error slots.
func (sc *Scratch) errSlots(n int) []*rowErr {
	if cap(sc.errs) < n {
		sc.errs = make([]*rowErr, n)
	}
	sc.errs = sc.errs[:n]
	for i := range sc.errs {
		sc.errs[i] = nil
	}
	return sc.errs
}

// stages returns n zeroed fusedStage slots.
func (sc *Scratch) stages(n int) []fusedStage {
	if cap(sc.fs) < n {
		sc.fs = make([]fusedStage, n)
	}
	sc.fs = sc.fs[:n]
	for i := range sc.fs {
		sc.fs[i] = fusedStage{}
	}
	return sc.fs
}

// ints returns n reusable ints (the per-stage extent arrays).
func (sc *Scratch) ints(n int) []int {
	if cap(sc.dims) < n {
		sc.dims = make([]int, n)
	}
	return sc.dims[:n]
}

// binsBuf returns the reusable reduction bin table at length n.
func (sc *Scratch) binsBuf(n int) []uint32 {
	if cap(sc.bins) < n {
		sc.bins = make([]uint32, n)
	}
	return sc.bins[:n]
}

// worker returns worker t's own scratch: the parallel fused path gives
// every strip private ring planes that persist across evals.
func (sc *Scratch) worker(t int) *Scratch {
	for len(sc.procs) <= t {
		sc.procs = append(sc.procs, &Scratch{})
	}
	return sc.procs[t]
}

var registry = map[string]*Kernel{}

func register(k *Kernel) { registry[k.Name] = k }

// Lookup returns the kernel with the given name.
func Lookup(name string) (*Kernel, bool) {
	k, ok := registry[name]
	return k, ok
}

// Kernels lists every registered kernel, ordered by name.
func Kernels() []*Kernel {
	out := make([]*Kernel, 0, len(registry))
	for _, k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Eval renders an outW x outH output region against img in row-major
// sample order with the serial reference schedule, exactly like the
// lifting pipeline's evaluators: when several channels fault on one row,
// the reported error is the one an x-then-c per-sample scan hits first.
// Multi-stage kernels chain their stages through intermediate buffers;
// reductions treat outW x outH as the domain and return the serialized
// bin table.
func (k *Kernel) Eval(img *Image, outW, outH int) ([]byte, error) {
	return k.EvalSched(img, outW, outH, Serial())
}

// EvalSched is Eval under an explicit schedule.  The output — and any
// reported error, position and message included — is identical to Eval's
// for every valid spec.
func (k *Kernel) EvalSched(img *Image, outW, outH int, spec ScheduleSpec) ([]byte, error) {
	return k.EvalInto(new(Scratch), img, outW, outH, spec)
}

// EvalInto is EvalSched against caller-owned scratch: all working memory
// — including the returned buffer — comes from sc, so repeated calls with
// one scratch allocate nothing in the steady state.  The result aliases
// sc and is only valid until its next use.
func (k *Kernel) EvalInto(sc *Scratch, img *Image, outW, outH int, spec ScheduleSpec) ([]byte, error) {
	switch spec.Fusion {
	case "", "materialize":
	case "slidingWindow":
		if len(k.Stages) < 2 {
			return nil, fmt.Errorf("ir: kernel %s: slidingWindow fusion needs at least 2 stages, kernel has %d", k.Name, len(k.Stages))
		}
	default:
		return nil, fmt.Errorf("ir: kernel %s: unknown fusion strategy %q", k.Name, spec.Fusion)
	}
	if len(k.Stages) > 0 {
		src := img
		if k.Red != nil && k.RedFirst {
			tbl, err := k.evalReductionInto(sc.buf(len(k.Stages), k.Red.Bins*4), sc, img, outW+k.RedDW, outH+k.RedDH)
			if err != nil {
				return nil, err
			}
			ti := sc.img(len(k.Stages))
			*ti = *img
			ti.Tbl = tbl
			src = ti
		}
		fimg, err := k.evalStages(sc, src, outW, outH, spec)
		if err != nil {
			return nil, err
		}
		if k.Red != nil && !k.RedFirst {
			return k.evalReduction(sc, fimg, outW, outH)
		}
		return fimg.Pix, nil
	}
	if err := k.checkExtent(outW, outH); err != nil {
		return nil, err
	}
	if k.Red != nil {
		return k.evalReduction(sc, img, outW, outH)
	}
	out := sc.outBuf(outW * outH * k.Channels)
	if e := evalStrips(out, img, k.Channels, k.OriginX, k.OriginY, outW, 0, outH, spec.Workers, k.Rows, k.RowAll); e != nil {
		return nil, k.rowError(-1, e)
	}
	return out, nil
}

// checkExtent rejects an empty output region (or reduction domain) of a
// single-stage or reduction-only kernel.  Staged kernels check every
// stage's own extent in evalStages.
func (k *Kernel) checkExtent(outW, outH int) error {
	if outW < 1 || outH < 1 {
		return fmt.Errorf("ir: kernel %s extent %dx%d is empty", k.Name, outW, outH)
	}
	return nil
}

// RowError is a row function's fault, positioned in output coordinates:
// the failure Eval and EvalInto report for every stencil row, carrying the
// stage index of a multi-stage pipeline (-1 for a single-stage kernel) so
// callers can re-attribute it.
type RowError struct {
	Kernel  string
	Stage   int
	X, Y, C int
	Err     error
}

func (e *RowError) Error() string {
	if e.Stage < 0 {
		return fmt.Sprintf("ir: kernel %s at (%d,%d,%d): %v", e.Kernel, e.X, e.Y, e.C, e.Err)
	}
	return fmt.Sprintf("ir: kernel %s stage %d at (%d,%d,%d): %v", e.Kernel, e.Stage, e.X, e.Y, e.C, e.Err)
}

func (e *RowError) Unwrap() error { return e.Err }

// rowError wraps stage si's (-1: the whole kernel's) first failure.
func (k *Kernel) rowError(si int, e *rowErr) error {
	return &RowError{Kernel: k.Name, Stage: si, X: e.x, Y: e.y, C: e.c, Err: e.err}
}

// rowErr is one row range's first failure in scan order.
type rowErr struct {
	y, x, c int
	err     error
}

// before orders failures by the serial per-sample scan: row-major, then
// x, then channel.
func (e *rowErr) before(o *rowErr) bool {
	if e.y != o.y {
		return e.y < o.y
	}
	if e.x != o.x {
		return e.x < o.x
	}
	return e.c < o.c
}

// runRow renders one output row with the reference x-then-c error
// selection; dst is the row-major row slice.
func runRow(dst []byte, img *Image, channels, originX, originY, y, outW int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	if rowAll != nil {
		x, c, err := rowAll(dst, img, y+originY, originX, outW)
		if err != nil {
			return &rowErr{y: y, x: x, c: c, err: err}
		}
		return nil
	}
	errX, errC := -1, -1
	var firstErr error
	for c, row := range rows {
		x, err := row(dst[c:], channels, img, y+originY, originX, outW)
		if err != nil && (errX < 0 || x < errX) {
			errX, errC, firstErr = x, c, err
		}
	}
	if firstErr != nil {
		return &rowErr{y: y, x: errX, c: errC, err: firstErr}
	}
	return nil
}

// evalRowsRange renders output rows [y0, y1) into out (the full
// row-major buffer), returning the range's scan-order-first failure.
func evalRowsRange(out []byte, img *Image, channels, originX, originY, outW, y0, y1 int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	for y := y0; y < y1; y++ {
		if e := runRow(out[y*outW*channels:], img, channels, originX, originY, y, outW, rows, rowAll); e != nil {
			return e
		}
	}
	return nil
}

// evalStrips renders output rows [y0, y1) split across workers.  Every
// strip renders (no early abort) and the scan-order-minimum failure is
// reported, so the result — values and error — matches the serial scan
// for every worker count.
func evalStrips(out []byte, img *Image, channels, originX, originY, outW, y0, y1, workers int, rows []RowFunc, rowAll RowAllFunc) *rowErr {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > y1-y0 {
		workers = y1 - y0
	}
	if workers <= 1 {
		return evalRowsRange(out, img, channels, originX, originY, outW, y0, y1, rows, rowAll)
	}
	errs := make([]*rowErr, workers)
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		// Strip bounds are computed here and passed by value: a goroutine
		// capturing a reassigned variable (workers is clamped above) moves
		// it to the heap at FUNCTION entry, charging the serial path an
		// allocation per call it never uses.
		s0 := y0 + t*(y1-y0)/workers
		s1 := y0 + (t+1)*(y1-y0)/workers
		wg.Add(1)
		go func(t, s0, s1 int) {
			defer wg.Done()
			errs[t] = evalRowsRange(out, img, channels, originX, originY, outW, s0, s1, rows, rowAll)
		}(t, s0, s1)
	}
	wg.Wait()
	var best *rowErr
	for _, e := range errs {
		if e != nil && (best == nil || e.before(best)) {
			best = e
		}
	}
	return best
}

// evalStages chains the pipeline under the schedule and returns the last
// stage's output as an image (the reduction driver's input when the
// kernel ends in one).  Every stage renders at the requested output size
// shifted by its recorded extent deltas.
func (k *Kernel) evalStages(sc *Scratch, img *Image, outW, outH int, spec ScheduleSpec) (*Image, error) {
	n := len(k.Stages)
	dims := sc.ints(2 * n)
	ws, hs := dims[:n:n], dims[n:2*n:2*n]
	if err := k.stageExtents(ws, hs, outW, outH); err != nil {
		return nil, err
	}
	if spec.Fusion == "slidingWindow" {
		return k.evalStagesFused(sc, img, ws, hs, spec)
	}
	cur := img
	for si := range k.Stages {
		st := &k.Stages[si]
		w, h := ws[si], hs[si]
		out := sc.buf(si, w*h*st.Channels)
		if e := evalStrips(out, cur, st.Channels, st.OriginX, st.OriginY, w, 0, h, spec.Workers, st.Rows, st.RowAll); e != nil {
			return nil, k.rowError(si, e)
		}
		ni := sc.img(si)
		*ni = Image{Pix: out, Stride: w * st.Channels, PixStep: st.Channels, ChanStep: 1, Tbl: cur.Tbl}
		cur = ni
	}
	return cur, nil
}

// stageExtents writes every stage's extents for a final render at (outW,
// outH) into ws and hs, rejecting an empty stage.
func (k *Kernel) stageExtents(ws, hs []int, outW, outH int) error {
	for si := range k.Stages {
		st := &k.Stages[si]
		ws[si], hs[si] = outW+st.DW, outH+st.DH
		if ws[si] <= 0 || hs[si] <= 0 {
			return fmt.Errorf("ir: kernel %s stage %d extent %dx%d is empty", k.Name, si, ws[si], hs[si])
		}
	}
	return nil
}

// RingRows reports the ring heights (one per stage gap) the sliding-window
// executor streams through when the final stage renders outW x outH, or
// why the pipeline cannot stream.
func (k *Kernel) RingRows(outW, outH int) ([]int, error) {
	n := len(k.Stages)
	if n < 2 {
		return nil, fmt.Errorf("ir: kernel %s: slidingWindow fusion needs at least 2 stages, kernel has %d", k.Name, n)
	}
	ws, hs := make([]int, n), make([]int, n)
	if err := k.stageExtents(ws, hs, outW, outH); err != nil {
		return nil, err
	}
	if err := k.checkStreamable(ws, hs); err != nil {
		return nil, err
	}
	rings := make([]int, n-1)
	for si := 1; si < n; si++ {
		rings[si-1] = k.Stages[si].rowFootprint()
	}
	return rings, nil
}

// rowFootprint is the number of producer rows one output row of the stage
// reads: the height of the ring its producer streams through.
// checkStreamable keeps it within the producer's height.
func (st *StageSpec) rowFootprint() int { return st.MaxDY - st.MinDY + 1 }

// checkStreamable checks that every intermediate streams: planar
// single-channel, with the consumer's read footprint inside its producer.
func (k *Kernel) checkStreamable(ws, hs []int) error {
	for si := 1; si < len(k.Stages); si++ {
		st := &k.Stages[si]
		if k.Stages[si-1].Channels != 1 {
			return fmt.Errorf("ir: kernel %s: only planar single-channel intermediates stream (stage %d has %d channels)", k.Name, si-1, k.Stages[si-1].Channels)
		}
		if st.MinDY < 0 || hs[si]-1+st.MaxDY >= hs[si-1] {
			return fmt.Errorf("ir: kernel %s stage %d reads rows [%d,%d], outside its %d-row producer", k.Name, si, st.MinDY, hs[si]-1+st.MaxDY, hs[si-1])
		}
		if st.MinDX < 0 || ws[si]-1+st.MaxDX >= ws[si-1] {
			// A horizontal overread wraps differently in a ring than in a
			// full plane; erroring keeps fusion result-identical or loud.
			return fmt.Errorf("ir: kernel %s stage %d reads columns [%d,%d], outside its %d-column producer", k.Name, si, st.MinDX, ws[si]-1+st.MaxDX, ws[si-1])
		}
	}
	return nil
}

// fusedStage is one stage's streaming state within one worker strip of
// the sliding-window executor.
type fusedStage struct {
	st   *StageSpec
	w, h int
	in   *Image // the image this stage reads
	// Ring buffer of this stage's output (nil for the final stage), as
	// tall as the consumer's row footprint.
	ring       []byte
	stride     int
	ringRows   int
	yBase      int
	ringImg    Image // what the consumer reads; Base tracks yBase
	cursor, hi int
	alive      bool
	fe         *rowErr
}

// evalStagesFused streams the pipeline: a producer stage computes only
// the rows its consumer still needs, ring-buffered, so no full-size
// intermediate plane is ever allocated.  Worker strips split the final
// rows and recompute their halo rows independently; per-stage errors
// merge to the scan-order first, and the earliest erroring stage wins —
// exactly the materializing executor's reporting.
func (k *Kernel) evalStagesFused(sc *Scratch, img *Image, ws, hs []int, spec ScheduleSpec) (*Image, error) {
	n := len(k.Stages)
	if err := k.checkStreamable(ws, hs); err != nil {
		return nil, err
	}
	last := n - 1
	out := sc.outBuf(ws[last] * hs[last] * k.Stages[last].Channels)
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	strips := workers
	if strips > hs[last] {
		strips = hs[last]
	}
	if strips < 1 {
		strips = 1
	}
	// The generated footprint-specialized strip driver, when there is
	// one, replaces the generic ring dispatch.
	gen := k.FusedStrip != nil
	if strips == 1 {
		errs := sc.errSlots(n)
		if gen {
			k.FusedStrip(sc, img, out, ws, hs, 0, hs[last], true, true, errs)
		} else {
			k.fusedStrip(sc, img, out, ws, hs, 0, hs[last], true, true, errs)
		}
		for si := 0; si < n; si++ {
			if e := errs[si]; e != nil {
				return nil, k.rowError(si, e)
			}
		}
		ri := sc.img(n - 1)
		*ri = Image{Pix: out, Stride: ws[last] * k.Stages[last].Channels, PixStep: k.Stages[last].Channels, ChanStep: 1}
		return ri, nil
	}
	stripErrs := make([][]*rowErr, strips)
	var wg sync.WaitGroup
	for t := 0; t < strips; t++ {
		wsc := sc.worker(t)
		se := wsc.errSlots(n)
		stripErrs[t] = se
		// Strip bounds and the first/drain roles travel as arguments so
		// the goroutine never captures strips (reassigned above) — a
		// reassigned capture is heap-moved at function entry, charging the
		// single-strip path an allocation per call.
		s0 := t * hs[last] / strips
		s1 := (t + 1) * hs[last] / strips
		first, drain := t == 0, t == strips-1
		wg.Add(1)
		go func(wsc *Scratch, se []*rowErr, s0, s1 int, first, drain bool) {
			defer wg.Done()
			if gen {
				k.FusedStrip(wsc, img, out, ws, hs, s0, s1, first, drain, se)
			} else {
				k.fusedStrip(wsc, img, out, ws, hs, s0, s1, first, drain, se)
			}
		}(wsc, se, s0, s1, first, drain)
	}
	wg.Wait()
	for si := 0; si < n; si++ {
		var best *rowErr
		for _, se := range stripErrs {
			if se[si] != nil && (best == nil || se[si].before(best)) {
				best = se[si]
			}
		}
		if best != nil {
			return nil, k.rowError(si, best)
		}
	}
	ri := sc.img(n - 1)
	*ri = Image{Pix: out, Stride: ws[last] * k.Stages[last].Channels, PixStep: k.Stages[last].Channels, ChanStep: 1}
	return ri, nil
}

// fusedStrip streams final-stage rows [s0, s1) through the chain and
// returns each stage's first error (nil entries for clean stages).  The
// first and drain strips also produce the producer rows no consumer row
// pulls — below and above the consumers' summed footprint — because the
// materializing chain computes every producer row and an error in one of
// them must not be lost.
func (k *Kernel) fusedStrip(sc *Scratch, img *Image, out []byte, ws, hs []int, s0, s1 int, first, drain bool, errs []*rowErr) {
	n := len(k.Stages)
	fs := sc.stages(n)
	fs[n-1].cursor, fs[n-1].hi = s0, s1
	for i := n - 2; i >= 0; i-- {
		st := &k.Stages[i+1]
		lo := fs[i+1].cursor + st.MinDY
		if lo < 0 || first {
			lo = 0
		}
		hi := fs[i+1].hi + st.MaxDY
		if hi > hs[i] || drain {
			hi = hs[i]
		}
		fs[i].cursor, fs[i].hi = lo, hi
	}
	for i := range fs {
		s := &fs[i]
		s.st = &k.Stages[i]
		s.w, s.h = ws[i], hs[i]
		s.alive = true
		if i < n-1 {
			s.ringRows = k.Stages[i+1].rowFootprint()
			s.stride = ws[i] // intermediates are planar single-channel
			s.ring = sc.buf(i, s.ringRows*s.stride)
			s.yBase = s.cursor
			s.ringImg = Image{Pix: s.ring, Base: -s.yBase * s.stride, Stride: s.stride, PixStep: 1, Tbl: img.Tbl}
		}
	}
	fs[0].in = img
	for i := 1; i < n; i++ {
		fs[i].in = &fs[i-1].ringImg
	}
	for fs[n-1].alive && fs[n-1].cursor < fs[n-1].hi {
		fusedProduce(fs, out, n-1)
	}
	for i := n - 2; i >= 0; i-- {
		for fs[i].alive && fs[i].cursor < fs[i].hi {
			fusedProduce(fs, out, i)
		}
	}
	for i := range fs {
		errs[i] = fs[i].fe
	}
}

// fusedProduce computes the current row of stage i, pulling the producer
// rows it needs first.  Stages stop at their first error; a stage whose
// producer died stops without an error of its own (the producer's
// dominates).
func fusedProduce(fs []fusedStage, out []byte, i int) {
	s := &fs[i]
	y := s.cursor
	if i > 0 {
		p := &fs[i-1]
		top := y + s.st.MaxDY
		for p.alive && p.cursor <= top && p.cursor < p.hi {
			fusedProduce(fs, out, i-1)
		}
		if !p.alive {
			s.alive = false
			return
		}
	}
	var dst []byte
	if i == len(fs)-1 {
		dst = out[y*s.w*s.st.Channels:]
	} else {
		ph := y - s.yBase
		if ph >= s.ringRows {
			// Recycle: slide the last ringRows-1 rows (still needed by the
			// consumer) up one and move the consumer's view so logical row
			// numbers stay put.
			copy(s.ring, s.ring[s.stride:s.ringRows*s.stride])
			s.yBase++
			s.ringImg.Base = -s.yBase * s.stride
			ph = y - s.yBase
		}
		dst = s.ring[ph*s.stride:]
	}
	if e := runRow(dst, s.in, s.st.Channels, s.st.OriginX, s.st.OriginY, y, s.w, s.st.Rows, s.st.RowAll); e != nil {
		s.alive = false
		s.fe = e
		return
	}
	s.cursor++
}

// evalReduction accumulates over the domW x domH input domain and
// serializes the 4-byte bins little-endian.  The bin updates commute but
// error detection is a scan, so reduction rows always run serially.
func (k *Kernel) evalReduction(sc *Scratch, img *Image, domW, domH int) ([]byte, error) {
	// Accumulation over img completes inside evalReductionInto before the
	// serialization writes, so the shared output buffer is a safe target
	// even when a fused pipeline made img alias it.
	return k.evalReductionInto(sc.outBuf(k.Red.Bins*4), sc, img, domW, domH)
}

// evalReductionInto is evalReduction serializing into a caller-chosen
// buffer — the reduction-first path banks the table in a stage slot so
// the output buffer stays free for the consuming stages' pixels.
func (k *Kernel) evalReductionInto(out []byte, sc *Scratch, img *Image, domW, domH int) ([]byte, error) {
	r := k.Red
	bins := sc.binsBuf(r.Bins)
	clear(bins)
	copy(bins, r.Init)
	for y := 0; y < domH; y++ {
		if x, err := r.Row(bins, img, y, domW); err != nil {
			return nil, fmt.Errorf("ir: kernel %s at (%d,%d): %w", k.Name, x, y, err)
		}
	}
	if r.Suffix {
		var run uint32
		for i := range bins {
			run += bins[i]
			bins[i] = run
		}
	}
	for i, v := range bins {
		out[i*4] = byte(v)
		out[i*4+1] = byte(v >> 8)
		out[i*4+2] = byte(v >> 16)
		out[i*4+3] = byte(v >> 24)
	}
	return out, nil
}

// spanIn reports whether the whole index span [lo, hi] lies inside a
// backing of the given length — the hoisted bounds check of the row loops.
func spanIn(lo, hi, length int) bool {
	return lo >= 0 && hi < length
}

// floorDiv divides rounding toward negative infinity — the division the
// fractional affine index maps are defined with.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func errDivZero() error { return fmt.Errorf("ir: division by zero") }
func errModZero() error { return fmt.Errorf("ir: modulo by zero") }
func errTable(idx int64, n int) error {
	return fmt.Errorf("ir: table index %d out of range (%d elements)", idx, n)
}
func errLoad(x, y, c int) error {
	return fmt.Errorf("ir: compiled load at (%d,%d,%d) outside the pixel backing", x, y, c)
}
func errRedIndex(idx int64, bins int) error {
	return fmt.Errorf("ir: reduction index %d out of range (%d bins)", idx, bins)
}
