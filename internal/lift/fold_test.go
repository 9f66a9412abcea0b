package lift

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"helium/internal/asm"
	"helium/internal/faultpoint"
	"helium/internal/image"
	"helium/internal/isa"
	"helium/internal/trace"
	"helium/internal/vm"
)

// Host parameter block offsets of the fold targets (the corpus layout).
const (
	foldFlag    = 0
	foldSrc     = 4
	foldDst     = 8
	foldWidth   = 12
	foldHeight  = 16
	foldStride  = 20
	foldTotal   = 24
	foldW       = 20
	foldH       = 9
	foldSrcAddr = vm.HeapBase
	foldDstAddr = vm.HeapBase + 0x2000
)

func foldPB(off int32) isa.Operand {
	return isa.Mem(isa.RegNone, int32(vm.ParamBlock)+off, 4)
}

// foldTarget assembles a host-like program around a point filter
// out(x, y) = in(x, y) + 3.  main always copies the source buffer and,
// when the host flag is set, runs onPath, which calls the filter in
// some shape.  helper is a difference-only function that touches no
// memory beyond its frame; wrapper forwards its arguments to the filter.
// Both sit after the filter in address order.
func foldTarget(t *testing.T, name string, onPath func(b *asm.Builder, pushArgs func())) Target {
	b := asm.New(name)
	eax, ecx, edx, esi, edi := isa.RegOp(isa.EAX), isa.RegOp(isa.ECX), isa.RegOp(isa.EDX), isa.RegOp(isa.ESI), isa.RegOp(isa.EDI)
	esp := isa.RegOp(isa.ESP)
	pushArgs := func() {
		b.Push(foldPB(foldStride))
		b.Push(foldPB(foldHeight))
		b.Push(foldPB(foldWidth))
		b.Push(foldPB(foldDst))
		b.Push(foldPB(foldSrc))
	}

	b.Label("main")
	b.Prologue(0)
	b.Push(foldPB(foldTotal))
	b.Push(foldPB(foldDst))
	b.Push(foldPB(foldSrc))
	b.Call("copy")
	b.Add(esp, isa.ImmOp(12))
	b.Mov(eax, foldPB(foldFlag))
	b.Test(eax, eax)
	b.Jcc(isa.JZ, "main_skip")
	onPath(b, pushArgs)
	b.Label("main_skip")
	b.Epilogue()

	b.Label("copy") // copy(src, dst, n)
	b.Prologue(0)
	b.Mov(esi, asm.Arg(0))
	b.Mov(edi, asm.Arg(1))
	b.Mov(ecx, asm.Arg(2))
	b.Mov(edx, isa.ImmOp(0))
	b.Label("copy_loop")
	b.Cmp(edx, ecx)
	b.Jcc(isa.JGE, "copy_done")
	b.Movzx(eax, isa.MemOp(isa.ESI, isa.EDX, 1, 0, 1))
	b.Mov(isa.MemOp(isa.EDI, isa.EDX, 1, 0, 1), isa.RegOp(isa.AL))
	b.Inc(edx)
	b.Jmp("copy_loop")
	b.Label("copy_done")
	b.Epilogue()

	y := asm.Local(1)
	b.Label("filter") // filter(src, dst, w, h, stride)
	b.Prologue(8)
	b.Mov(esi, asm.Arg(0))
	b.Mov(edi, asm.Arg(1))
	b.Mov(y, isa.ImmOp(0))
	b.Label("f_row")
	b.Mov(eax, y)
	b.Cmp(eax, asm.Arg(3))
	b.Jcc(isa.JGE, "f_done")
	b.Mov(ecx, isa.ImmOp(0))
	b.Label("f_x")
	b.Cmp(ecx, asm.Arg(2))
	b.Jcc(isa.JGE, "f_next")
	b.Movzx(eax, isa.MemOp(isa.ESI, isa.ECX, 1, 0, 1))
	b.Add(eax, isa.ImmOp(3))
	b.Mov(isa.MemOp(isa.EDI, isa.ECX, 1, 0, 1), isa.RegOp(isa.AL))
	b.Inc(ecx)
	b.Jmp("f_x")
	b.Label("f_next")
	b.Add(esi, asm.Arg(4))
	b.Add(edi, asm.Arg(4))
	b.Inc(y)
	b.Jmp("f_row")
	b.Label("f_done")
	b.Epilogue()

	b.Label("helper") // reads the host width, writes nothing
	b.Prologue(0)
	b.Mov(eax, foldPB(foldWidth))
	b.Imul(eax, eax)
	b.Epilogue()

	b.Label("wrapper") // wrapper(src, dst, w, h, stride) = filter(...)
	b.Prologue(0)
	for i := 4; i >= 0; i-- {
		b.Push(asm.Arg(i))
	}
	b.Call("filter")
	b.Add(esp, isa.ImmOp(20))
	b.Epilogue()

	prog, err := b.Build()
	if err != nil {
		t.Fatalf("assemble %s: %v", name, err)
	}
	pl := image.NewPlane(foldW, foldH, 0)
	pl.FillPattern(5)
	src := append([]byte(nil), pl.Pix...)
	return Target{
		Prog: prog,
		Setup: func(m *vm.Machine, apply bool) {
			m.Reset()
			m.Mem.WriteBytes(foldSrcAddr, src)
			flag := uint64(0)
			if apply {
				flag = 1
			}
			for off, v := range map[uint32]uint64{
				foldFlag: flag, foldSrc: uint64(foldSrcAddr), foldDst: uint64(foldDstAddr),
				foldWidth: foldW, foldHeight: foldH, foldStride: uint64(pl.Stride), foldTotal: uint64(len(src)),
			} {
				m.Mem.Write(vm.ParamBlock+off, 4, v)
			}
		},
		Known: KnownInput{Width: foldW, Height: foldH, Channels: 1, Interior: pl.Interior()},
	}
}

// liftOneEntry is Lift with the filter traced by the one-entry tracer on
// a run of its own: the reference the folded capture must match.
func liftOneEntry(name string, t Target) (*Result, error) {
	loc, err := Localize(t)
	if err != nil {
		return nil, err
	}
	m := vm.NewMachine(t.Prog)
	t.Setup(m, true)
	tr := &trace.InstTrace{}
	sr, err := m.RunTraceStream(vm.TraceOptions{FilterEntry: loc.FilterEntry, MaxSteps: t.MaxSteps, MaxTraceInsts: t.MaxTraceInsts}, tr)
	if err != nil {
		return nil, err
	}
	tr.BuildWriteIndex()
	return analyze(name, t, loc, tr, sr, nil)
}

// TestFoldedFallback lifts two targets whose filter-on run traces an
// extent that does not start at the chosen filter entry, or nests the
// filter inside another difference function, and demands the same lift
// as the one-entry tracer gives.
func TestFoldedFallback(t *testing.T) {
	cases := []struct {
		name    string
		onPath  func(b *asm.Builder, pushArgs func())
		extents int // extents the instrumented filter-on run traces
	}{
		// A difference-only helper called at top level before the
		// filter: its extent is traced too, so Lift re-traces the filter
		// alone.
		{"helper-first", func(b *asm.Builder, pushArgs func()) {
			b.Call("helper")
			pushArgs()
			b.Call("filter")
			b.Add(isa.RegOp(isa.ESP), isa.ImmOp(20))
		}, 2},
		// A difference-only wrapper calling the filter: the wrapper is the
		// outermost candidate, and its one extent holds the filter's.
		{"wrapper", func(b *asm.Builder, pushArgs func()) {
			pushArgs()
			b.Call("wrapper")
			b.Add(isa.RegOp(isa.ESP), isa.ImmOp(20))
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tgt := foldTarget(t, tc.name, tc.onPath)

			// The premise: how many extents the folded run traces.
			m := vm.NewMachine(tgt.Prog)
			tgt.Setup(m, false)
			off, err := m.RunCoverage(vm.CoverageOptions{})
			if err != nil {
				t.Fatalf("off-run: %v", err)
			}
			tgt.Setup(m, true)
			on, err := m.RunCoverage(vm.CoverageOptions{Baseline: off.Blocks, Sink: &trace.InstTrace{}})
			if err != nil {
				t.Fatalf("on-run: %v", err)
			}
			if len(on.Extents) != tc.extents {
				t.Fatalf("folded run traced extents %#x, want %d", on.Extents, tc.extents)
			}

			got, err := Lift(tc.name, tgt)
			if err != nil {
				t.Fatalf("Lift: %v", err)
			}
			want, err := liftOneEntry(tc.name, tgt)
			if err != nil {
				t.Fatalf("one-entry lift: %v", err)
			}
			if g, w := got.Loc, want.Loc; g.FilterEntry != w.FilterEntry || !slices.Equal(g.Candidates, w.Candidates) ||
				g.OnBlocks != w.OnBlocks || g.OffBlocks != w.OffBlocks || len(g.Diff) != len(w.Diff) ||
				!slices.Equal(g.MemTrace, w.MemTrace) {
				t.Errorf("localization differs:\n got:  %+v\n want: %+v", g, w)
			}
			if got.TraceInsts != want.TraceInsts || got.TraceSteps != want.TraceSteps || got.Samples != want.Samples {
				t.Errorf("trace stats differ: got %d insts %d steps %d samples, want %d %d %d",
					got.TraceInsts, got.TraceSteps, got.Samples, want.TraceInsts, want.TraceSteps, want.Samples)
			}
			if !maps.EqualFunc(got.Dump.Pages, want.Dump.Pages, bytes.Equal) {
				t.Error("dump pages differ from the one-entry lift's")
			}
			if len(got.Stages) != len(want.Stages) {
				t.Fatalf("lifted %d stages, one-entry lift %d", len(got.Stages), len(want.Stages))
			}
			for i := range got.Stages {
				if g, w := got.Stages[i].Kernel.Trees[0].Key(), want.Stages[i].Kernel.Trees[0].Key(); g != w {
					t.Errorf("stage %d IR key %s, one-entry lift %s", i, g, w)
				}
			}
			if err := got.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
			gb, err := got.EvalIR()
			if err != nil {
				t.Fatalf("EvalIR: %v", err)
			}
			wb, err := want.EvalIR()
			if err != nil {
				t.Fatalf("one-entry EvalIR: %v", err)
			}
			if !bytes.Equal(gb, wb) {
				t.Error("verified bytes differ from the one-entry lift's")
			}
			if got.Loc.FilterEntry == 0 || got.TraceInsts == 0 {
				t.Errorf("implausible lift: entry %#x, %d trace insts", got.Loc.FilterEntry, got.TraceInsts)
			}
		})
	}
}

// TestFoldedErrorOrder pins the rejections of the emulation phases on the
// fold targets: which run's failure is reported when both the filter-off
// and the filter-on run fail, an off-run-only failure, and trace failures
// on the reused capture (wrapper) and on the re-trace (helper-first).
func TestFoldedErrorOrder(t *testing.T) {
	helperFirst := func(b *asm.Builder, pushArgs func()) {
		b.Call("helper")
		pushArgs()
		b.Call("filter")
		b.Add(isa.RegOp(isa.ESP), isa.ImmOp(20))
	}
	wrapper := func(b *asm.Builder, pushArgs func()) {
		pushArgs()
		b.Call("wrapper")
		b.Add(isa.RegOp(isa.ESP), isa.ImmOp(20))
	}
	cases := []struct {
		name     string
		onPath   func(b *asm.Builder, pushArgs func())
		tweak    func(t *Target)
		truncate bool
		want     string
	}{
		{"both-runs-exceed", helperFirst, func(t *Target) { t.MaxSteps = 40 }, false,
			"lift: rejected at localize: lift: on-run coverage: vm: both-runs-exceed exceeded 40 steps during coverage run"},
		{"off-run-exceeds", helperFirst, func(t *Target) {
			// The filter-off host asks for a copy far longer than the step
			// budget; the filter-on host's copy fits.
			setup := t.Setup
			t.Setup = func(m *vm.Machine, apply bool) {
				setup(m, apply)
				if !apply {
					m.Mem.Write(vm.ParamBlock+foldTotal, 4, 1<<16)
				}
			}
			t.MaxSteps = 20000
		}, false,
			"lift: rejected at localize: lift: off-run coverage: vm: off-run-exceeds exceeded 20000 steps during coverage run"},
		{"wrapper-cap", wrapper, func(t *Target) { t.MaxTraceInsts = 100 }, false,
			"lift: rejected at trace: lift: trace run: vm: trace exceeded 100 instructions"},
		{"helper-first-cap", helperFirst, func(t *Target) { t.MaxTraceInsts = 100 }, false,
			"lift: rejected at trace: lift: trace run: vm: trace exceeded 100 instructions"},
		{"wrapper-truncate", wrapper, func(*Target) {}, true,
			"lift: rejected at trace: lift: trace run: vm: trace capture aborted after 256 records (injected fault trace.truncate)"},
		{"helper-first-truncate", helperFirst, func(*Target) {}, true,
			"lift: rejected at trace: lift: trace run: vm: trace capture aborted after 256 records (injected fault trace.truncate)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tgt := foldTarget(t, tc.name, tc.onPath)
			tc.tweak(&tgt)
			if tc.truncate {
				faultpoint.Enable("trace.truncate")
				defer faultpoint.Reset()
			}
			_, err := Lift(tc.name, tgt)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Lift error:\n got:  %v\n want: %s", err, tc.want)
			}
		})
	}
}
