package lift_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"helium/internal/image"
	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/schedule"
)

// footprintInput builds a seeded flat input covering every tap a final
// render of w x h samples makes: a clamp-padded plane, or an interleaved
// image whose interior holds the whole footprint.
func footprintInput(res *lift.Result, w, h int, seed uint64) ir.Source {
	xlo, xhi, ylo, yhi := res.InputFootprint(w, h)
	if res.Bufs.In.Interleaved {
		im := image.NewInterleaved(max(xhi+1, 1), max(yhi+1, 1), res.Bufs.In.Channels)
		im.FillPattern(seed)
		return ir.InterleavedSource{Im: im}
	}
	p := image.NewPlane(max(xhi+1, 1), max(yhi+1, 1), max(0, -xlo, -ylo))
	p.FillPattern(seed)
	return ir.PlaneSource{P: p}
}

// compiledKernel is one lifted corpus kernel and its compiled form.
type compiledKernel struct {
	name string
	res  *lift.Result
	c    *lift.CompiledResult
}

// compiledCorpus lifts and compiles every corpus kernel with at least one
// register-program stage.
func compiledCorpus(t *testing.T, cfg legacy.Config) []compiledKernel {
	t.Helper()
	var out []compiledKernel
	for _, k := range legacy.Kernels() {
		res, err := lift.Lift(k.Name, target(k.Instantiate(cfg)))
		if err != nil {
			t.Fatalf("%s: lift: %v", k.Name, err)
		}
		c, err := res.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", k.Name, err)
		}
		for _, ck := range c.Stages {
			if ck != nil {
				out = append(out, compiledKernel{k.Name, res, c})
				break
			}
		}
	}
	return out
}

// TestCompiledGeometryDifferential holds the compiled tier, rendered
// through the shared runtime, to the interpreter away from the lift
// geometry: every corpus kernel with a register form, at widths 1–17
// (around the generated code's 8-lane batch cut), at each stage's register
// chunk width ±1 (where a row splits into two chunks) and two odd heights,
// under the serial schedule, the committed one, 3 workers, 8x2 tiles and —
// where the chain streams — sliding-window fusion.  Output must be
// byte-equal to EvalIRAt.
func TestCompiledGeometryDifferential(t *testing.T) {
	set, err := schedule.Load("../../schedules.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, ckn := range compiledCorpus(t, legacy.Config{Width: 40, Height: 24, Seed: 1}) {
		kname, res, c := ckn.name, ckn.res, ckn.c
		n := len(res.Stages)
		scheds := []*schedule.Schedule{
			{Workers: 1},
			set.For(kname),
			{Workers: 3},
			{Workers: 2, Stages: fillStages(n, schedule.Stage{TileW: 8, TileH: 2})},
		}
		if c.Fusable() {
			scheds = append(scheds, &schedule.Schedule{Fusion: schedule.SlidingWindow, Workers: 2})
		}
		widths := make([]int, 0, 24)
		for w := 1; w <= 17; w++ {
			widths = append(widths, w)
		}
		fw, _ := res.EvalDims()
		for _, ck := range c.Stages {
			if ck == nil {
				continue
			}
			// The final width at which this stage's rows are exactly one
			// chunk wide, and one sample either side of it.
			w := ck.ChunkWidth() - (ck.OutWidth - fw)
			widths = append(widths, w-1, w, w+1)
		}
		for _, h := range []int{5, 11} {
			for _, w := range widths {
				if w < 1 {
					continue
				}
				src := footprintInput(res, w, h, uint64(w*31+h))
				want, werr := res.EvalIRAt(src, w, h)
				if werr != nil {
					t.Fatalf("%s %dx%d: interpreter: %v", kname, w, h, werr)
				}
				for _, sc := range scheds {
					got, err := c.EvalScheduledAt(src, w, h, sc)
					if err != nil {
						t.Fatalf("%s %dx%d [%s]: %v", kname, w, h, sc, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s %dx%d [%s]: compiled output differs from the interpreter", kname, w, h, sc)
					}
				}
			}
		}
	}
}

// TestCompiledResultConcurrent shares one CompiledResult per kernel among
// 8 goroutines that render different geometries under different schedules
// at once — the row functions' pooled per-caller state must keep every
// output equal to the serial render.  CI runs it under -race.
func TestCompiledResultConcurrent(t *testing.T) {
	for _, ckn := range compiledCorpus(t, legacy.Config{Width: 24, Height: 12, Seed: 4}) {
		res, c := ckn.res, ckn.c
		type job struct {
			w, h int
			src  ir.Source
			sc   *schedule.Schedule
			want []byte
		}
		jobs := make([]job, 8)
		for g := range jobs {
			w, h := 9+5*g, 7+3*g
			src := footprintInput(res, w, h, uint64(g+1))
			want, err := c.EvalAt(src, w, h)
			if err != nil {
				t.Fatalf("%s %dx%d serial: %v", ckn.name, w, h, err)
			}
			sc := &schedule.Schedule{Workers: 1 + g%3}
			if g%2 == 1 {
				sc.Stages = fillStages(len(res.Stages), schedule.Stage{TileW: 4 + g, TileH: 3})
			}
			if g%4 == 3 && c.Fusable() {
				sc = &schedule.Schedule{Fusion: schedule.SlidingWindow, Workers: 2, WindowRows: g}
			}
			jobs[g] = job{w, h, src, sc, want}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(jobs))
		for g := range jobs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				j := jobs[g]
				for round := 0; round < 4; round++ {
					got, err := c.EvalScheduledAt(j.src, j.w, j.h, j.sc)
					if err != nil {
						errs[g] = err
						return
					}
					if !bytes.Equal(got, j.want) {
						errs[g] = fmt.Errorf("%dx%d [%s] round %d differs from the serial render", j.w, j.h, j.sc, round)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Errorf("%s goroutine %d: %v", ckn.name, g, err)
			}
		}
	}
}
