// Steady-state allocation gate: the Scratch-based entry points promise
// zero allocations per evaluation once the scratch has warmed up — the
// shape a render loop or benchmark harness relies on.  Single-stage
// kernels, the sliding-window fused multi-stage pipeline, and the
// reduction all hold the guarantee.
package liftedkernels_test

import (
	"testing"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
)

// liftInput lifts one corpus kernel at cfg and returns its generated-
// package image plus output geometry.
func liftInput(t *testing.T, k legacy.Kernel, cfg legacy.Config) (*liftedkernels.Image, int, int) {
	t.Helper()
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
	img, ok := genImage(res.MaterializeInput())
	if !ok {
		t.Fatalf("%s: input cannot be materialized as a flat image", k.Name)
	}
	w, h := res.EvalDims()
	return img, w, h
}

// TestEvalIntoSteadyStateAllocFree drives every corpus kernel through
// the reusable-scratch entry points and demands AllocsPerRun report
// exactly zero in steady state, under both the serial default and the
// kernel's embedded tuned schedule (forced to one worker — spawning
// goroutines allocates by construction, so the parallel path's scratch
// reuse is covered by the per-worker sub-scratches it draws from the
// same Scratch).
func TestEvalIntoSteadyStateAllocFree(t *testing.T) {
	cfg := legacy.Config{Width: 64, Height: 48, Seed: 3}
	for _, k := range legacy.Kernels() {
		gk, ok := liftedkernels.Lookup(k.Name)
		if !ok {
			t.Fatalf("%s: not in the generated registry (run `helium gen`)", k.Name)
		}
		img, w, h := liftInput(t, k, cfg)

		specs := []struct {
			name string
			spec liftedkernels.ScheduleSpec
		}{
			{"serial", liftedkernels.Serial()},
		}
		tuned := gk.Sched
		tuned.Workers = 1
		specs = append(specs, struct {
			name string
			spec liftedkernels.ScheduleSpec
		}{"embedded-schedule", tuned})

		for _, s := range specs {
			sc := new(liftedkernels.Scratch)
			if _, err := gk.EvalInto(sc, img, w, h, s.spec); err != nil {
				t.Fatalf("%s/%s: EvalInto: %v", k.Name, s.name, err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := gk.EvalInto(sc, img, w, h, s.spec); err != nil {
					t.Fatalf("%s/%s: EvalInto: %v", k.Name, s.name, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: EvalInto allocates %.0f times per run in steady state; want 0",
					k.Name, s.name, allocs)
			}
		}

		// The embedded schedule exactly as registered, Workers 0 included:
		// AllocsPerRun pins GOMAXPROCS to 1, so it resolves to one worker.
		sc := new(liftedkernels.Scratch)
		if _, err := gk.EvalInto(sc, img, w, h, gk.Sched); err != nil {
			t.Fatalf("%s: EvalInto(Sched): %v", k.Name, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := gk.EvalInto(sc, img, w, h, gk.Sched); err != nil {
				t.Fatalf("%s: EvalInto(Sched): %v", k.Name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: EvalInto(Sched) allocates %.0f times per run in steady state; want 0",
				k.Name, allocs)
		}
	}
}
