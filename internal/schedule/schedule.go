// Package schedule is the execution-strategy half of the algorithm/schedule
// split the source paper's speedups rest on.  A lifted kernel (the
// algorithm) says only *what* each output sample is; a Schedule says *how*
// the executors should compute it: how many workers render its row strips
// and — for multi-stage pipelines — whether intermediate stages
// materialize full planes or stream through minimal rings of buffered
// rows.
//
// Those two knobs are the ones that measured.  Cache tiles and explicit
// ring heights were knobs too; timed at 1024x768 against plain row strips
// (60 alternating pairs per comparison, both the generated and the
// register-program tier) no tile shape won on any kernel — tiled/strip
// median ratios 1.02–1.25 on the generated tier, 0.93–1.19 with no
// consistent sign on the compiled one — and blur2p's ring heights of 0, 8
// and 32 rows timed within noise, so both were removed.
//
// Schedules are plain data: Spec converts one to the liftedkernels
// runtime's ScheduleSpec, which both the generated kernels and the
// register programs run under.  The same pipeline runs under any valid
// schedule and produces bit-identical output (values, error positions and
// error messages), so a tuner is free to search the schedule space and
// keep only the fastest candidate.  The tuner (`helium tune`) persists its
// winners in a schedules.json Set consumed by `helium run`, `helium gen`
// and the generated package.
package schedule

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"helium/internal/liftedkernels"
)

// Fusion names an inter-stage execution strategy for multi-stage
// pipelines.
type Fusion string

const (
	// Materialize computes every stage fully into a freshly allocated
	// intermediate plane before the next stage starts — the baseline
	// strategy, maximally parallel within a stage.
	Materialize Fusion = "materialize"
	// SlidingWindow streams stages: a producer stage computes only the
	// rows its consumer still needs, into a ring as tall as the consumer's
	// row footprint, so deep pipelines never allocate a full-size
	// intermediate plane.
	SlidingWindow Fusion = "slidingWindow"
)

// Schedule is one kernel's complete execution strategy.
type Schedule struct {
	// Workers is the parallel worker count; 0 means GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Fusion is the inter-stage strategy; empty means Materialize.
	Fusion Fusion `json:"fusion,omitempty"`
}

// Default returns the heuristic schedule: materialize every stage,
// GOMAXPROCS workers.
func Default() *Schedule { return &Schedule{} }

// Spec converts the schedule to the runtime's ScheduleSpec (nil converts
// like Default).
func (s *Schedule) Spec() liftedkernels.ScheduleSpec {
	spec := liftedkernels.ScheduleSpec{Fusion: string(s.FusionKind())}
	if s != nil {
		spec.Workers = s.Workers
	}
	return spec
}

// FusionKind returns the effective fusion strategy (empty normalizes to
// Materialize).
func (s *Schedule) FusionKind() Fusion {
	if s == nil || s.Fusion == "" {
		return Materialize
	}
	return s.Fusion
}

// Validate checks a schedule against a pipeline of nStages stages.
func (s *Schedule) Validate(nStages int) error {
	if s == nil {
		return nil
	}
	switch s.Fusion {
	case "", Materialize, SlidingWindow:
	default:
		return fmt.Errorf("schedule: unknown fusion strategy %q", s.Fusion)
	}
	if s.FusionKind() == SlidingWindow && nStages < 2 {
		return fmt.Errorf("schedule: slidingWindow fusion needs at least 2 stages, pipeline has %d", nStages)
	}
	if s.Workers < 0 {
		return fmt.Errorf("schedule: negative worker count %d", s.Workers)
	}
	return nil
}

// String renders the schedule compactly for reports and logs.
func (s *Schedule) String() string {
	if s == nil {
		return "default"
	}
	out := string(s.FusionKind())
	if s.Workers > 0 {
		out += fmt.Sprintf(" workers=%d", s.Workers)
	}
	return out
}

// Set is the committed artifact of a tuning run: one winning schedule per
// kernel, plus the configuration it was measured at.
type Set struct {
	// Config describes the lift geometry the schedules were tuned at.
	Config string `json:"config"`
	// GoMaxProcs records the core count of the tuning machine; schedules
	// tuned on one core are honest about not having explored parallelism.
	GoMaxProcs int `json:"gomaxprocs"`
	// Machine is the tuning machine's class key (MachineKey of the tuning
	// run).  Consumers on a different machine class should warn before
	// applying the set: a worker count tuned elsewhere is a hypothesis
	// there, not a measurement.
	Machine string `json:"machine,omitempty"`
	// Kernels maps kernel name to its winning schedule.
	Kernels map[string]*Schedule `json:"kernels"`
}

// MachineKey names the machine class schedules are tuned against: the
// core count the worker sweep saw and the widest register-row lane the
// executors batch at.  It is deliberately coarse — schedules transfer
// across same-shape machines, and anything finer (cache sizes, exact
// CPU model) would invalidate sets too eagerly.
func MachineKey(cores, laneBits int) string {
	return fmt.Sprintf("%dc/%db", cores, laneBits)
}

// HostMachineKey is MachineKey for the current process: GOMAXPROCS cores
// and the 64-bit general registers the pure-Go row loops batch in.
func HostMachineKey() string { return MachineKey(runtime.GOMAXPROCS(0), 64) }

// MatchesMachine reports whether the set's schedules are measurements on
// the given machine class.  A nil set or one with no machine stamp
// matches anywhere: there is nothing to contradict.
func (s *Set) MatchesMachine(host string) bool {
	return s == nil || s.Machine == "" || s.Machine == host
}

// For returns the schedule tuned for a kernel, or nil when the set has
// none (callers fall back to Default).
func (s *Set) For(kernel string) *Schedule {
	if s == nil {
		return nil
	}
	return s.Kernels[kernel]
}

// Load reads a schedule set from a JSON file.  A field the schema does not
// define (a retired knob: per-stage lanes and tiles, ring heights) is an
// error, not silently ignored.
func Load(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set Set
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&set); err != nil {
		return nil, fmt.Errorf("schedule: %s does not parse: %w", path, err)
	}
	for name, sc := range set.Kernels {
		// A set does not know stage counts; validate the parts it can
		// (per-pipeline Validate calls check fusion against the real depth).
		if err := sc.Validate(2); err != nil {
			return nil, fmt.Errorf("schedule: %s: kernel %s: %w", path, name, err)
		}
	}
	return &set, nil
}

// Save writes the set as stable, human-diffable JSON (map keys sort).
func (s *Set) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// GridOpts configures candidate enumeration for the tuner.
type GridOpts struct {
	// Stages is the pipeline depth; fusion candidates only appear for 2+.
	Stages int
	// MaxWorkers caps the worker sweep (usually GOMAXPROCS).
	MaxWorkers int
	// Smoke shrinks the grid to a handful of candidates for CI.
	Smoke bool
}

// Grid enumerates the tuner's candidate schedules, the heuristic default
// first (so the previous hard-coded strategy is always a candidate and the
// winner can never be slower than it).
func Grid(o GridOpts) []*Schedule {
	workers := []int{0}
	if o.MaxWorkers > 1 {
		for w := 1; w <= o.MaxWorkers; w *= 2 {
			workers = append(workers, w)
		}
	}
	if o.Smoke {
		workers = workers[:min(2, len(workers))]
	}

	var out []*Schedule
	seen := map[string]bool{}
	// Candidates dedupe by effective semantics, not spelling: Workers 0
	// means GOMAXPROCS (== the explicit MaxWorkers entry) — the tuner
	// verifies and times every candidate, so a semantic duplicate is pure
	// waste.
	add := func(s *Schedule) {
		n := *s
		if n.Workers == 0 {
			n.Workers = max(o.MaxWorkers, 1)
		}
		key := n.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, s)
		}
	}
	add(Default())
	for _, w := range workers {
		add(&Schedule{Workers: w})
		if o.Stages >= 2 {
			add(&Schedule{Workers: w, Fusion: SlidingWindow})
		}
	}
	return out
}
