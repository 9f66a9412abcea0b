// The autotuner: search the schedule space per corpus kernel and commit
// the winners.  This is the practical payoff of the algorithm/schedule
// split — the lifted kernel fixes WHAT to compute, `helium tune` measures
// candidate strategies (tile extents, worker counts,
// materialize vs sliding-window fusion) and records the fastest one in
// schedules.json, which `helium run`, `helium -bench`, `helium gen` and
// the generated package then consume.  The heuristic default is always
// candidate zero, so a tuned schedule is never slower than the previous
// hard-coded strategy on the machine that tuned it.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"runtime"
	"time"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/schedule"
)

// tuneResult is one kernel's tuning outcome, for reporting.
type tuneResult struct {
	kernel            string
	sched             *schedule.Schedule
	bestNs, defaultNs float64
	candidates        int
	pruned            int
}

// runTune benchmarks candidate schedules for every corpus kernel and
// writes the winners to a schedules.json set.
func runTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ExitOnError)
	var (
		out        = fs.String("out", "schedules.json", "schedule set output path")
		smoke      = fs.Bool("smoke", false, "tiny candidate grid for CI; asserts the written set round-trips")
		width      = fs.Int("width", 256, "image width candidates are timed at")
		height     = fs.Int("height", 192, "image height candidates are timed at")
		seed       = fs.Uint64("seed", 1, "deterministic input pattern seed")
		maxWorkers = fs.Int("max-workers", 0, "cap of the worker-count search (0 = GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	explicitSize := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "width" || f.Name == "height" {
			explicitSize = true
		}
	})
	cfg := legacy.Config{Width: *width, Height: *height, Seed: *seed}
	if *smoke && !explicitSize {
		// Smoke mode shrinks the default geometry for CI speed, but an
		// explicitly requested size wins.
		cfg = legacy.Config{Width: 48, Height: 32, Seed: *seed}
	}
	fmt.Printf("tuning at %s\n", cfg)

	set := &schedule.Set{
		Config:     cfg.String(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Machine:    schedule.HostMachineKey(),
		Kernels:    map[string]*schedule.Schedule{},
	}
	var results []tuneResult
	for _, k := range legacy.Kernels() {
		r, err := tuneKernel(k, cfg, *smoke, *maxWorkers)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		set.Kernels[k.Name] = r.sched
		results = append(results, *r)
		fmt.Printf("%-10s %3d candidate(s), %2d pruned   best %8.2f ns/sample (default %8.2f, %0.2fx)   %s\n",
			r.kernel, r.candidates, r.pruned, r.bestNs, r.defaultNs, r.defaultNs/max64f(r.bestNs, 1e-9), r.sched)
	}

	if err := set.Save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d kernels)\n", *out, len(set.Kernels))

	// Round-trip assertion: the written artifact must load and validate,
	// and cover the whole corpus — the smoke gate CI runs.
	loaded, err := schedule.Load(*out)
	if err != nil {
		return fmt.Errorf("round-trip: %w", err)
	}
	for _, k := range legacy.Kernels() {
		if loaded.For(k.Name) == nil {
			return fmt.Errorf("round-trip: kernel %s missing from %s", k.Name, *out)
		}
	}
	if *smoke {
		fmt.Println("tune: smoke round-trip OK")
	}
	return nil
}

func max64f(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

// tuneKernel lifts one kernel, verifies it, and races the candidate grid.
// maxWorkers caps the worker-count search; 0 searches up to GOMAXPROCS.
func tuneKernel(k legacy.Kernel, cfg legacy.Config, smoke bool, maxWorkers int) (*tuneResult, error) {
	inst := k.Instantiate(cfg)
	res, err := lift.Lift(k.Name, target(inst))
	if err != nil {
		return nil, err
	}
	c, err := res.VerifyCompiled(0)
	if err != nil {
		return nil, err
	}

	// Reduction-only pipelines have no schedulable stencil work: the
	// scatter update runs serially whatever the schedule says, so the
	// default schedule is recorded as-is.
	onlyReductions := true
	for i := range res.Stages {
		if res.Stages[i].Kernel != nil {
			onlyReductions = false
		}
	}
	outW, outH := res.EvalDims()
	if onlyReductions {
		sc := schedule.Default()
		src := res.MaterializeInput()
		ns, err := timeIt(func() error {
			_, err := c.EvalScheduledAt(src, outW, outH, sc)
			return err
		})
		if err != nil {
			return nil, err
		}
		perSample := ns / float64(outW*outH)
		return &tuneResult{kernel: k.Name, sched: sc, bestNs: perSample, defaultNs: perSample, candidates: 1}, nil
	}

	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	opts := schedule.GridOpts{
		Stages:     1,
		OutW:       outW,
		OutH:       outH,
		MaxWorkers: maxWorkers,
		Smoke:      smoke,
	}
	if c.Fusable() {
		opts.Stages = len(res.Stages)
		if rings, err := c.RingRows(0); err == nil && len(rings) > 0 {
			// The smallest per-gap window: candidates at or below it are
			// minimal on every gap (see GridOpts.MinWindow).
			opts.MinWindow = rings[0]
			for _, r := range rings[1:] {
				opts.MinWindow = min(opts.MinWindow, r)
			}
		}
	}
	grid := schedule.Grid(opts)

	src := res.MaterializeInput()
	want, err := res.VMOutput()
	if err != nil {
		return nil, err
	}
	samples := float64(len(want))

	r := &tuneResult{kernel: k.Name, candidates: len(grid)}
	for i, cand := range grid {
		if err := cand.Validate(len(res.Stages)); err != nil {
			return nil, fmt.Errorf("candidate %s: %w", cand, err)
		}
		run := func() error {
			got, err := c.EvalScheduledAt(src, outW, outH, cand)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("schedule %s changed the output", cand)
			}
			return nil
		}
		// Early pruning: one quick probe; a candidate already far behind
		// the leader is not worth steady-state timing.
		start := time.Now()
		if err := run(); err != nil {
			return nil, err
		}
		// r.sched is nil until the first candidate is timed, so the
		// default (candidate zero) is never pruned.
		quick := float64(time.Since(start).Nanoseconds())
		if r.sched != nil && quick > 1.8*r.bestNs*samples {
			r.pruned++
			continue
		}
		ns, err := timeIt(run)
		if err != nil {
			return nil, err
		}
		perSample := ns / samples
		if i == 0 {
			r.defaultNs = perSample
		}
		if r.sched == nil || perSample < r.bestNs {
			r.sched, r.bestNs = cand, perSample
		}
	}
	return r, nil
}
