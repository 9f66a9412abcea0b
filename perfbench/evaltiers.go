package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"helium/internal/liftedkernels"
)

// The eval-tiers output geometry: large enough that a generated kernel
// call is milliseconds, not the microsecond of the 40x24 lift geometry.
const evalW, evalH = 1024, 768

// tierClass is one (kernel, tier) pair eval-tiers times.
type tierClass struct {
	l       *lifted
	tier    string // gen, gen2w or compiled
	in      *input
	want    []byte // the interpreter's output: every call must equal it
	samples int
	sc      liftedkernels.Scratch
	lat     []time.Duration // the last window's call latencies
}

// call runs the class's tier once.
func (c *tierClass) call() ([]byte, error) {
	switch c.tier {
	case "gen":
		return genSerial(c.l.gk, &c.sc, &c.in.img, evalW, evalH)
	case "gen2w":
		return genWorkers(c.l.gk, &c.sc, &c.in.img, evalW, evalH, 2)
	}
	return c.l.compiled(c.in.src, evalW, evalH)
}

// evalTiers prepares the eval-tiers workload: every lifted kernel
// evaluated in-process at 1024x768 on a seeded input, on the generated
// tier serially (serve's path) and at 2 workers, and on the compiled tier
// under serve's compiled-rung schedule.  The interpreter is the
// reference.  Set-up is the corpus lift+compile.
func evalTiers(r *run) (*workload, error) {
	scheds, err := loadSchedules("schedules.json")
	if err != nil {
		return nil, err
	}
	w := &workload{close: func() {}}
	setups := 3
	if r.probe {
		setups = 1
	}
	var ls []*lifted
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		ls, err = liftCorpus(scheds)
		w.setups = append(w.setups, time.Since(t0))
		if err != nil {
			return nil, err
		}
	}
	err = verifyCorpus(ls)
	r.check(err == nil, "corpus verification: %v", err)
	if r.corpus == nil && err == nil {
		r.corpus = ls
	}

	// Inputs and interpreter references: the oracle, outside set-up.
	rng := splitmix(derive(r.seed, 0xe7a1))
	var classes []*tierClass
	inputs := map[string]*input{}
	wants := map[string][]byte{}
	for _, l := range ls {
		if l.hasRegisterForm() != registerForm(l.gk) {
			return nil, fmt.Errorf("%s: compiled stages and generated reduction disagree on the register form", l.name)
		}
		iw, ih := footprintInterior(l.res, evalW, evalH)
		interior := make([]byte, iw*ih*l.res.Bufs.In.Channels)
		rng.fill(interior)
		in, err := buildInput(l.res, interior, iw, ih, evalW, evalH)
		if err != nil {
			return nil, fmt.Errorf("%s input: %w", l.name, err)
		}
		want, err := l.interp(in.src, evalW, evalH)
		if err != nil {
			return nil, fmt.Errorf("%s interp reference: %w", l.name, err)
		}
		inputs[l.name], wants[l.name] = in, want
		tiers := []string{"gen", "gen2w"}
		if l.hasRegisterForm() {
			tiers = append(tiers, "compiled")
		}
		for _, t := range tiers {
			classes = append(classes, &tierClass{
				l: l, tier: t, in: in, want: want,
				samples: evalSamples(evalW, evalH, l.geo.channels),
			})
		}
	}

	w.loop = func(window time.Duration) (*e2e, error) {
		res := &e2e{tailQ: 0.99}
		for _, c := range classes {
			c.lat = c.lat[:0]
		}
		order := make([]int, len(classes))
		for i := range order {
			order[i] = i
		}
		// CPU time per wall second of each tier's calls: the serial guard.
		cpu, wall := map[string]time.Duration{}, map[string]time.Duration{}
		start := time.Now()
		for round := 0; time.Since(start) < window; round++ {
			rng.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, ci := range order {
				c := classes[ci]
				cpu0 := cpuTime()
				t0 := time.Now()
				out, err := c.call()
				d := time.Since(t0)
				cpu[c.tier] += cpuTime() - cpu0
				wall[c.tier] += d
				r.tr.add("eval."+c.tier, 0, uint64(round), t0, t0.Add(d))
				r.check(err == nil && bytes.Equal(out, c.want), "%s %s: err=%v, output differs from interp", c.l.name, c.tier, err)
				c.lat = append(c.lat, d)
				res.lat = append(res.lat, d)
			}
		}
		res.wall = time.Since(start)
		res.ops = len(res.lat)
		// A serial call keeps at most one CPU busy (plus the runtime's
		// own background work); 2 workers keep up to two.
		serial := cpu["gen"].Seconds() / wall["gen"].Seconds()
		if serial > maxSerialCPU {
			r.breakRun("serial guard: generated serial calls used %.2f CPU-seconds per second, more than %.1f", serial, maxSerialCPU)
		}
		res.named = append(res.named,
			namedFigure{"gen_cpu_per_wall", "1", serial, calls(classes, "gen"), ", serial guard"},
			namedFigure{"gen_2w_cpu_per_wall", "1", cpu["gen2w"].Seconds() / wall["gen2w"].Seconds(), calls(classes, "gen2w"), ""})
		perTier := map[string][]float64{}
		calls := map[string]int{}
		for _, c := range classes {
			ns := nsPerSample(newDist(c.lat).median(), c.samples)
			res.classNs = append(res.classNs, ns)
			perTier[c.tier] = append(perTier[c.tier], ns)
			calls[c.tier] += len(c.lat)
		}
		for _, f := range []struct{ name, tier string }{
			{"gen_ns_per_sample", "gen"},
			{"gen_2w_ns_per_sample", "gen2w"},
			{"compiled_ns_per_sample", "compiled"},
		} {
			res.named = append(res.named, namedFigure{f.name, "ns", geomean(perTier[f.tier]), calls[f.tier],
				fmt.Sprintf(", geomean over %d kernels", len(perTier[f.tier]))})
		}
		return res, nil
	}

	w.layers = func() error {
		perTier := map[string][]float64{}
		for _, c := range classes {
			med := newDist(c.lat).median()
			ns := nsPerSample(med, c.samples)
			perTier[c.tier] = append(perTier[c.tier], ns)
			switch c.tier {
			case "gen":
				r.setLayer("liftedkernels."+c.l.name+".serial_ns_per_sample", ns)
				moved := float64(c.in.bytes + len(c.want))
				r.setLayer("liftedkernels."+c.l.name+".gb_per_s", moved/(med/1e3)/1e9)
			case "gen2w":
				r.setLayer("liftedkernels."+c.l.name+".w2_ns_per_sample", ns)
			case "compiled":
				r.setLayer("ir."+c.l.name+".compiled_ns_per_sample", ns)
			}
		}
		r.setLayer("liftedkernels.gen_ns_per_sample", geomean(perTier["gen"]))
		r.setLayer("liftedkernels.gen_2w_ns_per_sample", geomean(perTier["gen2w"]))
		r.setLayer("ir.compiled_ns_per_sample", geomean(perTier["compiled"]))

		// Allocations per call, from the runtime's object counter.
		const reps = 8
		var genAllocs, compAllocs, genCalls, compCalls float64
		for _, c := range classes {
			if c.tier == "gen2w" {
				continue
			}
			before := heapObjects()
			for i := 0; i < reps; i++ {
				out, err := c.call()
				r.check(err == nil && bytes.Equal(out, c.want), "%s %s (allocs): err=%v", c.l.name, c.tier, err)
			}
			n := heapObjects() - before
			if c.tier == "gen" {
				genAllocs, genCalls = genAllocs+n, genCalls+reps
			} else {
				compAllocs, compCalls = compAllocs+n, compCalls+reps
			}
		}
		r.setLayer("liftedkernels.allocs_per_eval", genAllocs/genCalls)
		r.setLayer("ir.compiled_allocs_per_eval", compAllocs/compCalls)

		// The interpreter tier and the input build, once more each, warm.
		var buildMS []float64
		for _, l := range ls {
			in := inputs[l.name]
			t0 := time.Now()
			out, err := l.interp(in.src, evalW, evalH)
			d := time.Since(t0)
			r.tr.add("eval.interp", 0, 0, t0, t0.Add(d))
			r.check(err == nil && bytes.Equal(out, wants[l.name]), "%s interp rerun: err=%v", l.name, err)
			r.setLayer("ir."+l.name+".interp_ns_per_sample", nsPerSample(float64(d)/1e6, evalSamples(evalW, evalH, l.geo.channels)))

			iw, ih := footprintInterior(l.res, evalW, evalH)
			interior := make([]byte, iw*ih*l.res.Bufs.In.Channels)
			t0 = time.Now()
			_, err = buildInput(l.res, interior, iw, ih, evalW, evalH)
			d = time.Since(t0)
			r.tr.add("image.build", 0, 0, t0, t0.Add(d))
			r.check(err == nil, "%s input build: %v", l.name, err)
			buildMS = append(buildMS, float64(d)/1e6)
		}
		r.setLayer("image.input_build_ms", mean(buildMS))
		return nil
	}
	return w, nil
}

// maxSerialCPU bounds the CPU-seconds per wall second a serial generated
// call may use before the serial guard fails the run.
const maxSerialCPU = 1.3

// calls counts a tier's calls in the last window.
func calls(classes []*tierClass, tier string) int {
	n := 0
	for _, c := range classes {
		if c.tier == tier {
			n += len(c.lat)
		}
	}
	return n
}

// cpuTime is the process's CPU time so far, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapObjects reads the runtime's cumulative heap allocation count.
func heapObjects() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}
