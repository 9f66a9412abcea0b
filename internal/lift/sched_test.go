package lift_test

import (
	"bytes"
	"testing"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/schedule"
)

// TestScheduledCorpusMatchesVM runs every corpus kernel under a spread of
// schedules — materialize with explicit tiles and worker counts,
// and (for multi-stage pipelines) sliding-window fusion at several window
// sizes — and demands byte-exact agreement with the legacy binary's own
// output.  This is the schedule layer's core contract: a schedule changes
// only the execution strategy, never the result.
func TestScheduledCorpusMatchesVM(t *testing.T) {
	cfg := legacy.Config{Width: 30, Height: 19, Seed: 5}
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, target(inst))
		if err != nil {
			t.Fatalf("%s: lift: %v", k.Name, err)
		}
		c, err := res.VerifyCompiled(3)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		nStages := len(res.Stages)
		scheds := []*schedule.Schedule{
			schedule.Default(),
			{Workers: 1},
			{Workers: 4, Stages: fillStages(nStages, schedule.Stage{TileW: 16, TileH: 4})},
			{Workers: 3, Stages: fillStages(nStages, schedule.Stage{TileW: 8, TileH: 2})},
		}
		if c.Fusable() {
			scheds = append(scheds,
				&schedule.Schedule{Fusion: schedule.SlidingWindow},
				&schedule.Schedule{Fusion: schedule.SlidingWindow, WindowRows: 5, Workers: 4},
			)
		}
		for _, sc := range scheds {
			if err := c.VerifySchedule(sc); err != nil {
				t.Errorf("%s: schedule %s: %v", k.Name, sc, err)
			}
		}
	}
}

func fillStages(n int, st schedule.Stage) []schedule.Stage {
	out := make([]schedule.Stage, n)
	for i := range out {
		out[i] = st
	}
	return out
}

// TestBlur2pFusedBitExactAndSmall is the acceptance test of the tentpole:
// sliding-window execution of the two-pass blur matches the materializing
// baseline (and the VM) bit for bit, while its only intermediate lives in
// a ring a fraction of the plane height.
func TestBlur2pFusedBitExactAndSmall(t *testing.T) {
	k, ok := legacy.Lookup("blur2p")
	if !ok {
		t.Fatal("blur2p missing from the corpus")
	}
	cfg := legacy.Config{Width: 40, Height: 32, Seed: 2}
	res, err := lift.Lift(k.Name, target(k.Instantiate(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Fusable() {
		t.Fatal("blur2p must be fusable")
	}

	rings, err := c.RingRows(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rings) != 1 {
		t.Fatalf("ring count %d, want 1", len(rings))
	}
	interH := res.Stages[0].Out.Rows
	if rings[0] >= interH {
		t.Fatalf("minimal ring holds %d rows — as much as the %d-row intermediate plane", rings[0], interH)
	}
	if rings[0] != 3 {
		t.Errorf("blur2p vertical pass has a 3-row footprint; ring = %d rows", rings[0])
	}

	src := res.MaterializeInput()
	w, h := res.EvalDims()
	want, err := c.EvalAt(src, w, h) // materializing baseline
	if err != nil {
		t.Fatal(err)
	}
	vmOut, err := res.VMOutput()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, vmOut) {
		t.Fatal("materializing baseline does not match the VM")
	}
	for _, sc := range []*schedule.Schedule{
		{Fusion: schedule.SlidingWindow, Workers: 1},
		{Fusion: schedule.SlidingWindow, Workers: 1, WindowRows: 8},
		{Fusion: schedule.SlidingWindow, Workers: 4},
		{Fusion: schedule.SlidingWindow, Workers: 4, WindowRows: 6},
	} {
		got, err := c.EvalScheduledAt(src, w, h, sc)
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if !bytes.Equal(got, want) {
			bad := 0
			for i := range got {
				if got[i] != want[i] {
					bad++
				}
			}
			t.Errorf("%s: fused output differs from materializing on %d/%d samples", sc, bad, len(want))
		}
	}
}

// TestScheduleValidationSurfacesInEval pins that invalid schedules are
// rejected before execution rather than silently ignored.
func TestScheduleValidationSurfacesInEval(t *testing.T) {
	k, _ := legacy.Lookup("boxblur3")
	res, err := lift.Lift(k.Name, target(k.Instantiate(legacy.Config{Width: 16, Height: 8, Seed: 1})))
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.Compile()
	if err != nil {
		t.Fatal(err)
	}
	w, h := res.EvalDims()
	if _, err := c.EvalScheduledAt(res.MaterializeInput(), w, h, &schedule.Schedule{Fusion: "bogus"}); err == nil {
		t.Fatal("bogus fusion strategy must be rejected")
	}
	if _, err := c.EvalScheduledAt(res.MaterializeInput(), w, h, &schedule.Schedule{Fusion: schedule.SlidingWindow}); err == nil {
		t.Fatal("sliding-window on a single-stage kernel must be rejected")
	}
}
