// Command helium runs the lifting pipeline end to end against the legacy
// corpus: it executes a kernel under the tracing VM, localizes the filter
// by coverage diffing, reconstructs the buffer structure, extracts and
// canonicalizes per-pixel expression trees, prints the lifted Halide-like
// IR, and verifies the chosen backend pixel-exactly against the binary's
// own output.
//
// Usage:
//
//	helium [-kernel name] [-width N] [-height N] [-seed N] [-v]
//	       [-backend interp|compiled|generated] [-workers N]
//	       [-schedules schedules.json] [-strict]
//	helium -bench [-bench-out BENCH_lift.json] [-workers-sweep auto|1,2,4]
//	       [-cpuprofile f] [-memprofile f]
//	helium tune [-out schedules.json] [-smoke] [-width N] [-height N]
//	helium gen [-out dir] [-check] [-schedules schedules.json]
//
// With no -kernel, every corpus kernel is lifted.  The default backend
// compiles the lifted trees to register programs and evaluates them both
// serially and with the cache-blocked parallel driver — plus, when a
// tuned schedule set is present, under that schedule (sliding-window
// fusion included); -backend interp selects the tree-walking evaluator
// and -backend generated the ahead-of-time Go code in
// internal/liftedkernels.  Either way the output is compared byte for
// byte with what the legacy binary wrote.
//
// When a backend fails, run degrades gracefully down the chain
// generated -> compiled -> interp -> vm, printing the reason for each
// step down; the terminal vm backend re-emulates the binary directly, so
// a correct answer always comes back even when the lift itself fails.
// -strict disables the chain: the first failure is fatal.  A schedule
// set tuned on a different machine class is likewise dropped for
// execution, with the reason printed (re-run `helium tune` to
// re-measure).
//
// -bench times VM emulation against all execution backends (including
// the tuned schedule) over the corpus, sweeps the parallel backends over
// worker counts, and writes a machine-readable JSON report.
//
// The tune subcommand is the autotuner: it races candidate schedules
// (tiles, workers, materialize vs sliding-window fusion) per kernel,
// verifying each candidate bit-exact before timing it, and writes the
// winners to schedules.json; -smoke runs a tiny grid and asserts the
// artifact round-trips, for CI.
//
// The gen subcommand regenerates internal/liftedkernels/kernels.go from
// the corpus (true ahead-of-time codegen), embedding the tuned schedules
// as the generated kernels' defaults; the package's runtime.go is
// hand-written and gen leaves it alone.  -check verifies the checked-in
// kernels.go is up to date instead of writing, for CI.
//
// The exit status is nonzero if anything fails to lift, verify, tune or
// regenerate cleanly.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"helium/internal/faultpoint"
	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
	"helium/internal/schedule"
	"helium/internal/vm"
)

// The CLI's injectable failures, exercised by the degradation tests and
// the CI fault-injection smoke (HELIUM_FAULTPOINTS=name helium ...).
var (
	// fpGenVerifyFail corrupts one byte of the generated backend's output
	// before verification, modeling a stale internal/liftedkernels.
	fpGenVerifyFail = faultpoint.Register("gen.verify-fail",
		"corrupt one byte of the generated backend's output before verification")
	// fpSchedMismatch treats the loaded schedule set as tuned on a
	// different machine class, forcing the heuristic-default fallback.
	fpSchedMismatch = faultpoint.Register("sched.machine-mismatch",
		"treat the loaded schedule set as tuned on a different machine class")
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := runGen(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "helium: gen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "tune" {
		if err := runTune(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "helium: tune: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var (
		kernelName = flag.String("kernel", "", "lift a single corpus kernel (default: all)")
		width      = flag.Int("width", 40, "image width in pixels")
		height     = flag.Int("height", 24, "image height in pixels")
		seed       = flag.Uint64("seed", 1, "deterministic input pattern seed")
		backend    = flag.String("backend", "compiled", "evaluation backend: interp, compiled or generated")
		workers    = flag.Int("workers", 0, "parallel eval workers (0 = GOMAXPROCS)")
		verbose    = flag.Bool("v", false, "print localization and buffer details")
		list       = flag.Bool("list", false, "list the corpus kernels and exit")
		bench      = flag.Bool("bench", false, "benchmark VM vs all evaluation backends over the corpus")
		benchOut   = flag.String("bench-out", "BENCH_lift.json", "benchmark report path (with -bench)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the bench run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile after the bench run to this file")
		schedPath  = flag.String("schedules", "schedules.json", "tuned schedule set consumed by run/bench (missing file = heuristic defaults)")
		sweep      = flag.String("workers-sweep", "auto", "bench worker-count sweep: comma list or \"auto\" (powers of two up to GOMAXPROCS)")
		strict     = flag.Bool("strict", false, "disable graceful backend degradation: the first backend failure is fatal")
	)
	flag.Parse()

	if *list {
		for _, k := range legacy.Kernels() {
			fmt.Printf("%-10s %s\n", k.Name, k.Description)
		}
		return
	}
	switch *backend {
	case "interp", "compiled", "generated":
	default:
		fmt.Fprintf(os.Stderr, "helium: unknown backend %q (interp, compiled or generated)\n", *backend)
		os.Exit(2)
	}
	if (*cpuProf != "" || *memProf != "") && !*bench {
		fmt.Fprintf(os.Stderr, "helium: -cpuprofile/-memprofile only apply to -bench runs\n")
		os.Exit(2)
	}

	// The pipeline needs images big enough that the output buffer dwarfs
	// the filter's stack traffic and row structure is observable.
	if *width < 12 || *height < 6 || *width > 4096 || *height > 4096 {
		fmt.Fprintf(os.Stderr, "helium: image size %dx%d out of range (min 12x6, max 4096x4096)\n", *width, *height)
		os.Exit(2)
	}

	kernels := legacy.Kernels()
	if *kernelName != "" {
		k, ok := legacy.Lookup(*kernelName)
		if !ok {
			fmt.Fprintf(os.Stderr, "helium: unknown kernel %q (try -list)\n", *kernelName)
			os.Exit(2)
		}
		kernels = []legacy.Kernel{k}
	}

	// run executes under the loaded schedules, so a machine-class mismatch
	// must fall back (or, with -strict, fail); bench only times them and
	// keeps the historical warn-and-apply behavior so its artifact stays
	// comparable across machines.
	scheds, err := loadSchedules(*schedPath, *verbose, !*bench, *strict)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helium: %v\n", err)
		os.Exit(1)
	}
	cfg := legacy.Config{Width: *width, Height: *height, Seed: *seed}
	if *bench {
		if err := runBench(kernels, cfg, *workers, *benchOut, *cpuProf, *memProf, scheds, *sweep); err != nil {
			fmt.Fprintf(os.Stderr, "helium: bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	failed := false
	for _, k := range kernels {
		if err := run(k, cfg, *backend, *workers, *verbose, *strict, scheds.For(k.Name)); err != nil {
			fmt.Fprintf(os.Stderr, "helium: %s: %v\n", k.Name, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadSchedules reads the tuned schedule set.  A missing file is fine —
// heuristic defaults apply, the set is an optimization — but a file that
// exists and fails to parse or validate is an error: silently ignoring a
// corrupt schedules.json would bench and generate against defaults while
// claiming to use the tuned set.
//
// A schedule is a measurement only on the machine class that timed it.
// When the set is about to drive execution (forExec) and was tuned
// elsewhere, it is dropped in favor of the heuristic defaults with the
// reason printed — or, under -strict, refused outright.  Analysis
// consumers (gen, bench) keep it with a warning: gen's artifact must not
// depend on the build host, and bench wants cross-machine comparability.
func loadSchedules(path string, verbose, forExec, strict bool) (*schedule.Set, error) {
	set, err := schedule.Load(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			if verbose {
				fmt.Printf("schedules: %s not found; using heuristic defaults\n", path)
			}
			return nil, nil
		}
		return nil, err
	}
	host := schedule.HostMachineKey()
	if set.MatchesMachine(host) && !faultpoint.Enabled(fpSchedMismatch) {
		return set, nil
	}
	if !forExec {
		fmt.Fprintf(os.Stderr, "helium: warning: %s was tuned on machine class %s; this host is %s (re-run `helium tune` to re-measure)\n",
			path, set.Machine, host)
		return set, nil
	}
	if strict {
		return nil, fmt.Errorf("%s was tuned on machine class %s but this host is %s (running -strict: re-run `helium tune`)",
			path, set.Machine, host)
	}
	fmt.Printf("fallback: %s was tuned on machine class %s but this host is %s; using heuristic default schedules (re-run `helium tune` to re-measure)\n",
		path, set.Machine, host)
	return nil, nil
}

func target(inst *legacy.Instance) lift.Target {
	return lift.Target{
		Prog:  inst.Prog,
		Setup: inst.Setup,
		Known: lift.KnownInput{
			Width:       inst.Width,
			Height:      inst.Height,
			Channels:    inst.Channels,
			Interleaved: inst.Interleaved,
			Interior:    inst.InputInterior,
		},
	}
}

// evalGenerated renders a lifted result through the checked-in generated
// package and verifies it against the legacy binary's own output.
func evalGenerated(name string, res *lift.Result) (*liftedkernels.Kernel, []byte, error) {
	gk, ok := liftedkernels.Lookup(name)
	if !ok {
		return nil, nil, fmt.Errorf("kernel %q is not in internal/liftedkernels (run `helium gen`)", name)
	}
	img, err := ir.ImageOf(res.MaterializeInput())
	if err != nil {
		return nil, nil, fmt.Errorf("kernel %q input: %w", name, err)
	}
	w, h := res.EvalDims()
	out, err := gk.Eval(img, w, h)
	if err != nil {
		return nil, nil, fmt.Errorf("generated eval: %w", err)
	}
	if faultpoint.Enabled(fpGenVerifyFail) && len(out) > 0 {
		out = append([]byte(nil), out...)
		out[len(out)/2] ^= 0x40
	}
	want, err := res.VMOutput()
	if err != nil {
		return nil, nil, err
	}
	if !bytes.Equal(out, want) {
		return nil, nil, fmt.Errorf("generated code output differs from the VM's (stale internal/liftedkernels? run `helium gen`)")
	}
	return gk, out, nil
}

// printLifted renders the lifted pipeline: one Halide-like definition per
// stage.
func printLifted(res *lift.Result) {
	for i := range res.Stages {
		st := &res.Stages[i]
		if st.Red != nil {
			fmt.Print(st.Red)
			continue
		}
		fmt.Print(st.Kernel)
	}
}

// backendChain is the graceful-degradation order: the requested backend
// first, then progressively simpler evaluators, ending at direct VM
// emulation — which needs nothing from the lift, so a correct answer is
// always reachable.
func backendChain(backend string) []string {
	switch backend {
	case "generated":
		return []string{"generated", "compiled", "interp", "vm"}
	case "compiled":
		return []string{"compiled", "interp", "vm"}
	default:
		return []string{"interp", "vm"}
	}
}

func run(k legacy.Kernel, cfg legacy.Config, backend string, workers int, verbose, strict bool, tuned *schedule.Schedule) error {
	inst := k.Instantiate(cfg)

	fmt.Printf("=== %s (%s)\n", k.Name, cfg)
	chain := backendChain(backend)
	res, err := lift.Lift(k.Name, target(inst))
	if err != nil {
		if strict {
			return err
		}
		// With no lifted result every evaluator is off the table; only the
		// VM itself can still answer.  That loses everything the lift adds,
		// but the legacy output is still reproduced — and the reason is on
		// record.
		fmt.Printf("fallback: lift failed: %v; degrading to vm\n", err)
		chain, res = []string{"vm"}, nil
	}

	if res != nil {
		if verbose {
			fmt.Printf("localization: filter entry %#x (candidates %#x), coverage %d on / %d off blocks, diff %d\n",
				res.Loc.FilterEntry, res.Loc.Candidates, res.Loc.OnBlocks, res.Loc.OffBlocks, len(res.Loc.Diff))
			fmt.Printf("buffers: input base %#x stride %d; output base %#x stride %d, %dx%d px, %d channel(s)\n",
				res.Bufs.In.Base, res.Bufs.In.Stride,
				res.Bufs.Out.Base, res.Bufs.Out.Stride,
				res.Bufs.Out.Width(), res.Bufs.Out.Rows, res.Bufs.Out.Channels)
			fmt.Printf("trace: %d dynamic instructions (of %d executed), %d KiB dumped, %d sample trees\n",
				res.TraceInsts, res.TraceSteps, res.Dump.Size()/1024, res.Samples)
			line := "phases:"
			for _, pt := range res.PhaseTimes {
				line += fmt.Sprintf(" %s=%s", pt.Phase, pt.Dur.Round(10*time.Microsecond))
			}
			fmt.Println(line)
		}
		printLifted(res)
	}

	for i, be := range chain {
		err := runBackend(be, k, inst, res, workers, verbose, tuned)
		if err == nil {
			return nil
		}
		if strict {
			return fmt.Errorf("%s backend: %w (running -strict: degradation disabled)", be, err)
		}
		if i+1 == len(chain) {
			return fmt.Errorf("every backend failed; last (%s): %w", be, err)
		}
		fmt.Printf("fallback: %s backend failed: %v; degrading to %s\n", be, err, chain[i+1])
	}
	return nil
}

// runBackend verifies one backend and prints its success line.  The
// terminal "vm" backend re-emulates the binary and checks its output
// against the instance's pure-Go reference, needing no lifted result.
func runBackend(be string, k legacy.Kernel, inst *legacy.Instance, res *lift.Result, workers int, verbose bool, tuned *schedule.Schedule) error {
	switch be {
	case "interp":
		if err := res.Verify(); err != nil {
			return err
		}
		fmt.Printf("verified: %d samples pixel-exact (interp backend)\n\n", res.Samples)
	case "compiled":
		ck, err := res.VerifyCompiled(workers)
		if err != nil {
			return err
		}
		if verbose {
			progs := ck.Progs()
			insts, consts, loads := 0, 0, 0
			lanes := make([]int, 0, len(progs))
			for _, p := range progs {
				insts += p.NumInsts()
				consts += p.NumConsts()
				loads += p.NumLoads()
				lanes = append(lanes, p.LaneBits())
			}
			fmt.Printf("compiled: %d instruction(s), %d pooled constant(s), %d tap(s) across %d channel program(s) in %d stage(s), lane bits %v\n",
				insts, consts, loads, len(progs), len(res.Stages), lanes)
		}
		if tuned != nil {
			if err := ck.VerifySchedule(tuned); err != nil {
				return err
			}
			if verbose {
				line := fmt.Sprintf("schedule: tuned [%s] verified", tuned)
				if tuned.FusionKind() == schedule.SlidingWindow {
					if rings, err := ck.RingRows(tuned.WindowRows); err == nil {
						line += fmt.Sprintf(", intermediate ring rows %v", rings)
					}
				}
				fmt.Println(line)
			}
		}
		fmt.Printf("verified: %d samples pixel-exact (compiled backend, serial + %d workers)\n\n",
			res.Samples, ck.Workers(workers))
	case "generated":
		gk, _, err := evalGenerated(k.Name, res)
		if err != nil {
			return err
		}
		if verbose {
			lanes := gk.LaneBits
			for _, st := range gk.Stages {
				lanes = append(lanes, st.LaneBits...)
			}
			fmt.Printf("generated: package liftedkernels kernel %s, lane bits %v\n", gk.Name, lanes)
		}
		fmt.Printf("verified: %d samples pixel-exact (generated Go backend)\n\n", res.Samples)
	case "vm":
		m := vm.NewMachine(inst.Prog)
		inst.Setup(m, true)
		if err := m.Run(0); err != nil {
			return err
		}
		got := inst.ReadOutput(m)
		if !bytes.Equal(got, inst.Reference) {
			return fmt.Errorf("vm output differs from the pure-Go reference (%d samples)", len(got))
		}
		fmt.Printf("verified: %d samples pixel-exact (vm backend, direct emulation)\n\n", len(got))
	default:
		return fmt.Errorf("unknown backend %q", be)
	}
	return nil
}

// runGen regenerates (or, with -check, verifies) the ahead-of-time
// compiled kernel package from the lifted corpus.
func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		out       = fs.String("out", filepath.Join("internal", "liftedkernels"), "output package directory")
		check     = fs.Bool("check", false, "verify the checked-in package matches instead of writing")
		width     = fs.Int("width", 40, "image width the corpus is lifted at")
		height    = fs.Int("height", 24, "image height the corpus is lifted at")
		seed      = fs.Uint64("seed", 1, "deterministic input pattern seed")
		schedPath = fs.String("schedules", "schedules.json", "tuned schedule set embedded as the generated kernels' default")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scheds, err := loadSchedules(*schedPath, false, false, false)
	if err != nil {
		return err
	}
	files, err := GenerateCorpusPackage(legacy.Config{Width: *width, Height: *height, Seed: *seed}, scheds)
	if err != nil {
		return err
	}

	if *check {
		for name, want := range files {
			path := filepath.Join(*out, name)
			got, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("%s: %w (run `helium gen` and commit the result)", path, err)
			}
			if !bytes.Equal(got, []byte(want)) {
				return fmt.Errorf("%s is stale: run `helium gen` and commit the result", path)
			}
		}
		fmt.Printf("gen: %d file(s) in %s are up to date\n", len(files), *out)
		return nil
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for name, content := range files {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("gen: wrote %s (%d bytes)\n", path, len(content))
	}
	return nil
}

// GenerateCorpusPackage lifts every corpus kernel at the given config and
// renders the generated half of the liftedkernels package: file name ->
// content (kernels.go only; runtime.go is hand-written).  The tuned
// schedule set (nil = none) is embedded as each kernel's default schedule.
func GenerateCorpusPackage(cfg legacy.Config, scheds *schedule.Set) (map[string]string, error) {
	var units []ir.GenKernel
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, target(inst))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.Name, err)
		}
		u := ir.GenKernel{Name: k.Name, Sched: scheds.For(k.Name)}
		for i := range res.Stages {
			st := &res.Stages[i]
			if st.Red != nil {
				u.Red = st.Red
				// A reduction anywhere but last feeds later stages its
				// serialized table instead of ending the pipeline.
				u.RedFirst = i < len(res.Stages)-1
			} else {
				u.Stages = append(u.Stages, st.Kernel)
			}
		}
		units = append(units, u)
	}
	src, err := ir.GenerateUnits("liftedkernels", units)
	if err != nil {
		return nil, err
	}
	return map[string]string{"kernels.go": src}, nil
}

// benchEntry is one kernel's timing row in the JSON report.
type benchEntry struct {
	Kernel      string             `json:"kernel"`
	Width       int                `json:"width"`
	Height      int                `json:"height"`
	Samples     int                `json:"samples"`
	NsPerSample map[string]float64 `json:"ns_per_sample"`
	Speedup     map[string]float64 `json:"speedup_vs_interp"`
	// LiftPhases is the one-time lift cost split by pipeline phase, in
	// milliseconds (localize, trace, extract, ... verify, compile) — the
	// "how long until this binary serves" half of the report, next to the
	// steady-state ns_per_sample half.
	LiftPhases map[string]float64 `json:"lift_phases,omitempty"`
	// Schedule is the tuned schedule the "scheduled" backend ran (JSON of
	// schedule.Schedule; omitted for reduction-only kernels).
	Schedule *schedule.Schedule `json:"schedule,omitempty"`
	// Sweeps maps the GOMAXPROCS value the sweep ran under to worker-count
	// rows of per-backend ns/sample — scaling curves keyed by the
	// parallelism actually available, so a 1-core container's flat curve
	// is never mistaken for a multi-core measurement.
	Sweeps map[string]map[string]map[string]float64 `json:"sweeps_by_gomaxprocs,omitempty"`
}

// benchReport is the whole machine-readable benchmark artifact.
type benchReport struct {
	Config   string       `json:"config"`
	MaxProcs int          `json:"gomaxprocs"`
	CPUs     int          `json:"cpus"`
	Machine  string       `json:"machine"`
	Workers  int          `json:"workers"`
	Kernels  []benchEntry `json:"kernels"`
}

// benchBackends is the timing matrix, in report order: VM emulation, the
// tree-walking interpreter, the register programs on the shared runtime —
// serial, row strips over the requested workers ("compiled-tiled", the
// report's historical key) and under the tuned schedule — and the
// ahead-of-time generated Go code (single-threaded).
var benchBackends = []string{"vm", "interp", "compiled", "compiled-tiled", "scheduled", "generated"}

// sweepWorkers parses the -workers-sweep flag: a comma list of counts, or
// "auto" for powers of two up to GOMAXPROCS (always including GOMAXPROCS
// itself).
func sweepWorkers(spec string) ([]int, error) {
	maxp := runtime.GOMAXPROCS(0)
	var out []int
	seen := map[int]bool{}
	add := func(w int) {
		if w >= 1 && !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	if spec == "auto" || spec == "" {
		for w := 1; w <= maxp; w *= 2 {
			add(w)
		}
		add(maxp)
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad -workers-sweep entry %q", part)
		}
		add(w)
	}
	sort.Ints(out)
	return out, nil
}

// timeIt measures fn's steady-state nanoseconds per call: after one
// warmup call, three measurement rounds of at least two iterations and
// ~15ms each, keeping the fastest round.  The minimum across rounds is
// far more robust to scheduler and thermal noise on a shared machine than
// one long mean, which matters because the committed baseline asserts
// cross-backend orderings.
func timeIt(fn func() error) (float64, error) {
	const (
		rounds   = 3
		minIters = 2
		minTime  = 15 * time.Millisecond
	)
	if err := fn(); err != nil {
		return 0, err
	}
	best := math.Inf(1)
	for r := 0; r < rounds; r++ {
		iters := 0
		start := time.Now()
		for {
			if err := fn(); err != nil {
				return 0, err
			}
			iters++
			if iters >= minIters && time.Since(start) >= minTime {
				break
			}
		}
		if ns := float64(time.Since(start).Nanoseconds()) / float64(iters); ns < best {
			best = ns
		}
	}
	return best, nil
}

// runBench lifts each kernel once, verifies every backend, then times VM
// emulation, the tree-walking interpreter, the compiled backend (serial,
// cache-blocked parallel, and under the tuned schedule), and the
// generated Go code over the same image, writing ns-per-sample per kernel
// per backend — plus a worker-count sweep of the parallel backends — to
// the JSON report.
func runBench(kernels []legacy.Kernel, cfg legacy.Config, workers int, outPath, cpuProf, memProf string, scheds *schedule.Set, sweepSpec string) error {
	sweep, err := sweepWorkers(sweepSpec)
	if err != nil {
		return err
	}
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	report := benchReport{
		Config:   cfg.String(),
		MaxProcs: runtime.GOMAXPROCS(0),
		CPUs:     runtime.NumCPU(),
		Machine:  schedule.HostMachineKey(),
	}
	for _, k := range kernels {
		inst := k.Instantiate(cfg)
		res, err := lift.Lift(k.Name, target(inst))
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		if err := res.Verify(); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		ck, err := res.VerifyCompiled(workers)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		gk, _, err := evalGenerated(k.Name, res)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		src := res.MaterializeInput()
		img, err := ir.ImageOf(src)
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		outW, outH := res.EvalDims()
		want, err := res.VMOutput()
		if err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}
		samples := len(want)
		report.Workers = ck.Workers(workers)

		tuned := scheds.For(k.Name)
		if tuned == nil {
			tuned = schedule.Default()
		}
		if err := ck.VerifySchedule(tuned); err != nil {
			return fmt.Errorf("%s: %w", k.Name, err)
		}

		m := vm.NewMachine(inst.Prog)
		tiled := &schedule.Schedule{Workers: max(workers, 0)}
		runs := map[string]func() error{
			"vm": func() error {
				inst.Setup(m, true)
				return m.Run(0)
			},
			"interp": func() error {
				_, err := res.EvalIRAt(src, outW, outH)
				return err
			},
			"compiled": func() error {
				_, err := ck.EvalAt(src, outW, outH)
				return err
			},
			"compiled-tiled": func() error {
				_, err := ck.EvalScheduledAt(src, outW, outH, tiled)
				return err
			},
			"scheduled": func() error {
				_, err := ck.EvalScheduledAt(src, outW, outH, tuned)
				return err
			},
			"generated": func() error {
				_, err := gk.Eval(img, outW, outH)
				return err
			},
		}
		// Reductions have no register-program form: their compiled chain is
		// the reduction evaluator itself, so only the honest backends are
		// timed.
		backends := benchBackends
		isRed := res.Reduction != nil && res.Kernel == nil
		if isRed {
			backends = []string{"vm", "interp", "generated"}
		}
		entry := benchEntry{
			Kernel:      k.Name,
			Width:       cfg.Width,
			Height:      cfg.Height,
			Samples:     samples,
			NsPerSample: make(map[string]float64),
			Speedup:     make(map[string]float64),
			LiftPhases:  make(map[string]float64),
		}
		// res carries the spans of every phase run so far: the lift
		// pipeline itself plus the Verify and VerifyCompiled calls above.
		for _, pt := range res.PhaseTimes {
			entry.LiftPhases[string(pt.Phase)] += float64(pt.Dur.Nanoseconds()) / 1e6
		}
		if !isRed {
			entry.Schedule = tuned
		}
		for _, name := range backends {
			ns, err := timeIt(runs[name])
			if err != nil {
				return fmt.Errorf("%s/%s: %w", k.Name, name, err)
			}
			entry.NsPerSample[name] = ns / float64(samples)
		}
		// Worker sweep: the parallel backends re-timed at each worker
		// count, keyed by the GOMAXPROCS the sweep ran under — scaling
		// curves only when the machine has the cores (a 1-core container's
		// curve is flat and honestly labeled "1").
		if !isRed {
			gsc := new(liftedkernels.Scratch)
			rows := map[string]map[string]float64{}
			for _, w := range sweep {
				row := map[string]float64{}
				tsc := &schedule.Schedule{Workers: w}
				ns, err := timeIt(func() error {
					_, err := ck.EvalScheduledAt(src, outW, outH, tsc)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s/compiled-tiled@%d: %w", k.Name, w, err)
				}
				row["compiled-tiled"] = ns / float64(samples)
				wsc := *tuned
				wsc.Workers = w
				ns, err = timeIt(func() error {
					_, err := ck.EvalScheduledAt(src, outW, outH, &wsc)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s/scheduled@%d: %w", k.Name, w, err)
				}
				row["scheduled"] = ns / float64(samples)
				gspec := tuned.Spec()
				gspec.Workers = w
				ns, err = timeIt(func() error {
					_, err := gk.EvalInto(gsc, img, outW, outH, gspec)
					return err
				})
				if err != nil {
					return fmt.Errorf("%s/generated@%d: %w", k.Name, w, err)
				}
				row["generated"] = ns / float64(samples)
				rows[fmt.Sprint(w)] = row
			}
			entry.Sweeps = map[string]map[string]map[string]float64{
				fmt.Sprint(report.MaxProcs): rows,
			}
		}
		base := entry.NsPerSample["interp"]
		for name, ns := range entry.NsPerSample {
			if ns > 0 {
				entry.Speedup[name] = base / ns
			}
		}
		report.Kernels = append(report.Kernels, entry)
		genVsCompiled := 0.0
		if g := entry.NsPerSample["generated"]; g > 0 {
			genVsCompiled = entry.NsPerSample["compiled"] / g
		}
		fmt.Printf("%-10s %7d samples   vm %9.1f   interp %7.2f   compiled %6.2f   tiled %6.2f   scheduled %6.2f   generated %6.2f  ns/sample  (generated %0.1fx interp, %0.1fx compiled)\n",
			k.Name, samples,
			entry.NsPerSample["vm"], entry.NsPerSample["interp"],
			entry.NsPerSample["compiled"], entry.NsPerSample["compiled-tiled"],
			entry.NsPerSample["scheduled"],
			entry.NsPerSample["generated"],
			entry.Speedup["generated"], genVsCompiled)
	}

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)

	if memProf != "" {
		f, err := os.Create(memProf)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
