// End-to-end tests of the liftedkernels package: the generated kernels.go
// (which `helium gen` rewrites) and the hand-written runtime.go it runs
// on.  This file is hand-written too.
package liftedkernels_test

import (
	"bytes"
	"fmt"
	"testing"

	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
)

// genImage maps an evaluator source onto the generated package's flat
// geometry (ir.ImageOf, reporting success as a bool).
func genImage(src ir.Source) (*liftedkernels.Image, bool) {
	img, err := ir.ImageOf(src)
	return img, err == nil
}

// TestGeneratedKernelsMatchVM lifts the corpus at a geometry and seed
// different from the one the package was generated at, and demands the
// generated code reproduce the legacy binaries' own output byte for byte —
// the generated row loops are size-generic, only their registration
// defaults record the gen-time geometry.
func TestGeneratedKernelsMatchVM(t *testing.T) {
	cfg := legacy.Config{Width: 33, Height: 17, Seed: 9}
	if len(liftedkernels.Kernels()) == 0 {
		t.Fatal("generated registry is empty (run `helium gen`)")
	}
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, lift.Target{
			Prog:  inst.Prog,
			Setup: inst.Setup,
			Known: lift.KnownInput{
				Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
				Interleaved: inst.Interleaved, Interior: inst.InputInterior,
			},
		})
		if err != nil {
			t.Fatalf("%s: lift: %v", k.Name, err)
		}
		gk, ok := liftedkernels.Lookup(k.Name)
		if !ok {
			t.Fatalf("%s: not in the generated registry (run `helium gen`)", k.Name)
		}
		img, ok := genImage(res.MaterializeInput())
		if !ok {
			t.Fatalf("%s: input cannot be materialized as a flat image", k.Name)
		}
		w, h := res.EvalDims()
		got, err := gk.Eval(img, w, h)
		if err != nil {
			t.Fatalf("%s: generated eval: %v", k.Name, err)
		}
		want, err := res.VMOutput()
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if !bytes.Equal(got, want) {
			bad := 0
			for i := range got {
				if got[i] != want[i] {
					bad++
				}
			}
			t.Errorf("%s: generated output differs from the VM's on %d/%d samples at %s", k.Name, bad, len(want), cfg)
		}
		if gk.DefaultWidth == w && gk.DefaultHeight == h {
			t.Errorf("%s: test geometry %dx%d accidentally equals the gen-time default; pick a different size",
				k.Name, gk.DefaultWidth, gk.DefaultHeight)
		}
	}
}

// TestGeneratedHonorsScheduleSpec pins the generated runtime's schedule
// layer: every kernel re-run under non-default schedules — parallel row
// strips, GOMAXPROCS workers, sliding-window fusion for the multi-stage
// pipeline, and the embedded autotuned schedule — must reproduce the
// serial reference Eval byte for byte.
func TestGeneratedHonorsScheduleSpec(t *testing.T) {
	cfg := legacy.Config{Width: 28, Height: 21, Seed: 4}
	fusedSeen := false
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, lift.Target{
			Prog:  inst.Prog,
			Setup: inst.Setup,
			Known: lift.KnownInput{
				Width: inst.Width, Height: inst.Height, Channels: inst.Channels,
				Interleaved: inst.Interleaved, Interior: inst.InputInterior,
			},
		})
		if err != nil {
			t.Fatalf("%s: lift: %v", k.Name, err)
		}
		gk, ok := liftedkernels.Lookup(k.Name)
		if !ok {
			t.Fatalf("%s: not in the generated registry", k.Name)
		}
		img, ok := genImage(res.MaterializeInput())
		if !ok {
			t.Fatalf("%s: input cannot be materialized", k.Name)
		}
		w, h := res.EvalDims()
		want, err := gk.Eval(img, w, h)
		if err != nil {
			t.Fatalf("%s: reference eval: %v", k.Name, err)
		}
		specs := []liftedkernels.ScheduleSpec{
			{Workers: 3},
			{Workers: -1}, // GOMAXPROCS
		}
		if len(gk.Stages) >= 2 {
			fusedSeen = true
			specs = append(specs,
				liftedkernels.ScheduleSpec{Workers: 1, Fusion: "slidingWindow"},
				liftedkernels.ScheduleSpec{Workers: 4, Fusion: "slidingWindow", WindowRows: 5},
			)
		}
		for _, spec := range specs {
			got, err := gk.EvalSched(img, w, h, spec)
			if err != nil {
				t.Errorf("%s: EvalSched(%+v): %v", k.Name, spec, err)
				continue
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: EvalSched(%+v) differs from Eval", k.Name, spec)
			}
		}
		got, err := gk.EvalTuned(img, w, h)
		if err != nil {
			t.Errorf("%s: EvalTuned: %v", k.Name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: EvalTuned (schedule %+v) differs from Eval", k.Name, gk.Sched)
		}
	}
	if !fusedSeen {
		t.Error("no multi-stage generated kernel exercised sliding-window fusion")
	}
	if _, err := liftedkernels.Kernels()[0].EvalSched(&liftedkernels.Image{}, 1, 1,
		liftedkernels.ScheduleSpec{Fusion: "bogus"}); err == nil {
		t.Error("EvalSched must reject an unknown fusion strategy")
	}
}

// TestFusedRejectsFootprintOverreads pins the runtime's fusion
// validation: a consumer stage whose recorded read footprint escapes its
// producer's extent must error under slidingWindow rather than silently
// read recycled ring rows (a full materialized plane and a ring wrap
// overreads differently, so fusion must be loud here).
func TestFusedRejectsFootprintOverreads(t *testing.T) {
	zeroRow := func(dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
		for x := 0; x < n; x++ {
			dst[x*step] = 0
		}
		return -1, nil
	}
	mk := func(s1 liftedkernels.StageSpec) *liftedkernels.Kernel {
		s0 := liftedkernels.StageSpec{Channels: 1, Rows: []liftedkernels.RowFunc{zeroRow}}
		s1.Channels = 1
		s1.Rows = []liftedkernels.RowFunc{zeroRow}
		return &liftedkernels.Kernel{Name: "overread", Channels: 1,
			Stages: []liftedkernels.StageSpec{s0, s1}}
	}
	img := &liftedkernels.Image{Pix: make([]byte, 256), Stride: 16, PixStep: 1}
	sliding := liftedkernels.ScheduleSpec{Workers: 1, Fusion: "slidingWindow"}

	if _, err := mk(liftedkernels.StageSpec{MinDY: 0, MaxDY: 0}).EvalSched(img, 8, 8, sliding); err != nil {
		t.Fatalf("in-footprint chain must fuse: %v", err)
	}
	if _, err := mk(liftedkernels.StageSpec{MinDX: -1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("negative column footprint must not fuse")
	}
	if _, err := mk(liftedkernels.StageSpec{MaxDX: 1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("column footprint past the producer width must not fuse")
	}
	if _, err := mk(liftedkernels.StageSpec{MinDY: -1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("negative row footprint must not fuse")
	}
	if _, err := mk(liftedkernels.StageSpec{MaxDY: 1}).EvalSched(img, 8, 8, sliding); err == nil {
		t.Error("row footprint past the producer height must not fuse")
	}
}

// TestFusedCoversUnconsumedProducerRows pins the generated runtime's
// strip coverage: producer rows below the consumers' footprint (positive
// MinDY) and above it are still produced under sliding-window fusion, so
// a fault confined to them is reported exactly as Eval reports it.
func TestFusedCoversUnconsumedProducerRows(t *testing.T) {
	failAt := func(badY int) liftedkernels.RowFunc {
		return func(dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
			if y == badY {
				return 2, fmt.Errorf("synthetic fault at row %d", y)
			}
			for x := 0; x < n; x++ {
				dst[x*step] = byte(y)
			}
			return -1, nil
		}
	}
	mk := func(badY int) *liftedkernels.Kernel {
		return &liftedkernels.Kernel{Name: "lowrows", Channels: 1, Stages: []liftedkernels.StageSpec{
			// Producer renders two extra rows; its row badY faults.
			{Channels: 1, DH: 2, Rows: []liftedkernels.RowFunc{failAt(badY)}},
			// Consumer reads producer rows [y+1, y+2]: producer row 0 is
			// never consumed, nor is its last row beyond the pull range.
			{Channels: 1, OriginY: 1, MinDY: 1, MaxDY: 2, Rows: []liftedkernels.RowFunc{failAt(-10)}},
		}}
	}
	img := &liftedkernels.Image{Pix: make([]byte, 1024), Stride: 32, PixStep: 1}
	const w, h = 8, 6
	for _, badY := range []int{0, h + 1} { // below and above the consumed range
		k := mk(badY)
		_, werr := k.Eval(img, w, h)
		if werr == nil {
			t.Fatalf("badY=%d: serial reference did not fault", badY)
		}
		for _, workers := range []int{1, 3} {
			_, gerr := k.EvalSched(img, w, h, liftedkernels.ScheduleSpec{
				Workers: workers, Fusion: "slidingWindow"})
			if gerr == nil || gerr.Error() != werr.Error() {
				t.Errorf("badY=%d workers=%d: fused error %q, want %q", badY, workers, gerr, werr)
			}
		}
	}
}

// TestNonPositiveExtentsRejected pins the runtime's extent guard: every
// registered kernel, on every entry point, answers an empty or negative
// output region with an error and no bytes — never a panic, and never a
// stale buffer with a nil error.
func TestNonPositiveExtentsRejected(t *testing.T) {
	if got, want := len(liftedkernels.Kernels()), len(legacy.Kernels()); got != want {
		t.Fatalf("generated registry holds %d kernels, corpus has %d", got, want)
	}
	img := &liftedkernels.Image{Pix: make([]byte, 4096), Base: 1024, Stride: 64, PixStep: 1}
	entries := []struct {
		name string
		eval func(k *liftedkernels.Kernel, w, h int) ([]byte, error)
	}{
		{"Eval", func(k *liftedkernels.Kernel, w, h int) ([]byte, error) { return k.Eval(img, w, h) }},
		{"EvalSched", func(k *liftedkernels.Kernel, w, h int) ([]byte, error) {
			return k.EvalSched(img, w, h, liftedkernels.ScheduleSpec{Workers: 3})
		}},
		{"EvalTuned", func(k *liftedkernels.Kernel, w, h int) ([]byte, error) { return k.EvalTuned(img, w, h) }},
	}
	for _, k := range liftedkernels.Kernels() {
		for _, d := range [][2]int{{-1, 4}, {4, -1}, {0, 4}, {4, 0}, {-3, -3}} {
			for _, e := range entries {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s.%s(%dx%d) panicked: %v", k.Name, e.name, d[0], d[1], r)
						}
					}()
					out, err := e.eval(k, d[0], d[1])
					if err == nil || out != nil {
						t.Errorf("%s.%s(%dx%d) = %d bytes, %v; want nil output and an error",
							k.Name, e.name, d[0], d[1], len(out), err)
					}
				}()
			}
		}
	}
}

// TestTiledFaultMatchesEval drives the cache-tiled driver over a faulting
// kernel.  The tile extents divide neither output extent, and one tile
// band holds two faults: the left tile's sits on a later row, so the
// scan-order-first fault is in the tile to its right.  The tiled error —
// serial and with workers splitting the bands — must be Eval's, and a
// clean run must reproduce Eval's bytes.
func TestTiledFaultMatchesEval(t *testing.T) {
	type pt struct{ x, y int }
	mk := func(faults ...pt) *liftedkernels.Kernel {
		row := func(dst []byte, step int, img *liftedkernels.Image, y, xbase, n int) (int, error) {
			for x := 0; x < n; x++ {
				for _, f := range faults {
					if f.x == xbase+x && f.y == y {
						return x, fmt.Errorf("synthetic fault at input (%d,%d)", f.x, f.y)
					}
				}
				dst[x*step] = byte(7*(xbase+x) + 3*y)
			}
			return -1, nil
		}
		return &liftedkernels.Kernel{Name: "tiled", Channels: 1, Rows: []liftedkernels.RowFunc{row}}
	}
	img := &liftedkernels.Image{Pix: make([]byte, 256), Stride: 16, PixStep: 1}
	const w, h = 10, 7
	tiles := []liftedkernels.StageSched{{TileW: 3, TileH: 2}}

	clean := mk()
	want, err := clean.Eval(img, w, h)
	if err != nil {
		t.Fatalf("clean Eval: %v", err)
	}
	// Band 1 covers rows [2,4): tile x∈[0,3) faults at row 3, tile
	// x∈[6,9) at row 2 — the scan-first one.  Band 3 adds a later fault.
	faulty := mk(pt{1, 3}, pt{7, 2}, pt{0, 6})
	_, werr := faulty.Eval(img, w, h)
	if werr == nil || werr.Error() != "ir: kernel tiled at (7,2,0): synthetic fault at input (7,2)" {
		t.Fatalf("serial reference error = %v", werr)
	}
	for _, workers := range []int{1, 3} {
		spec := liftedkernels.ScheduleSpec{Workers: workers, Stages: tiles}
		got, err := clean.EvalSched(img, w, h, spec)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("workers=%d: clean tiled eval = %v, %v; want Eval's bytes", workers, got, err)
		}
		if _, gerr := faulty.EvalSched(img, w, h, spec); gerr == nil || gerr.Error() != werr.Error() {
			t.Errorf("workers=%d: tiled error %q, want %q", workers, gerr, werr)
		}
	}
}
