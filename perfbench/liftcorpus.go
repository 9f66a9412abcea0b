package main

import (
	"fmt"
	"time"

	"helium/internal/legacy"
	"helium/internal/lift"
)

// minPasses is the fewest corpus passes a lift-corpus window runs, so
// its p90 always rests on at least 100 lifts (12 passes of 9).  Each
// half-window of a traced run needs half as many, and a probe one.
const minPasses = 12

// liftCorpusWorkload prepares the lift-corpus workload: cold, sequential
// lifts of every corpus binary at the lift geometry, each on a freshly
// seeded instance, timed from lift.Lift through Result.Verify and
// Result.VerifyCompiled(0).  Set-up is assembling the corpus.
func liftCorpusWorkload(r *run) (*workload, error) {
	kernels := legacy.Kernels()
	w := &workload{close: func() {}, layers: func() error { return nil }}
	// Assembling the corpus takes about a millisecond; many repetitions
	// keep its median steady.
	setups := 101
	if r.probe {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		for _, k := range kernels {
			k.Instantiate(legacy.Config{Width: liftW, Height: liftH, Seed: derive(r.seed, uint64(i))})
		}
		w.setups = append(w.setups, time.Since(t0))
	}

	// Per-pass accumulators of the last window, for the traced layers.
	type passStats struct {
		phases                       map[lift.Phase]time.Duration
		liftCall, verify, verifyComp time.Duration
		samples, insts               int
		steps                        uint64
	}
	var passes []passStats
	perKernel := map[string][]time.Duration{}
	samples := map[string]int{}
	rng := splitmix(derive(r.seed, 0x11f7))
	pass := 0

	w.loop = func(window time.Duration) (*e2e, error) {
		res := &e2e{tailQ: 0.9}
		minPasses := minPasses
		switch {
		case r.probe:
			minPasses = 1
		case r.traced:
			minPasses /= 2
		}
		passes = passes[:0]
		clear(perKernel)
		order := append([]legacy.Kernel(nil), kernels...)
		start := time.Now()
		for done := 0; done < minPasses || time.Since(start) < window; done++ {
			rng.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			ps := passStats{phases: map[lift.Phase]time.Duration{}}
			for _, k := range order {
				req := uint64(pass)<<8 | uint64(len(res.lat))&0xff
				top := r.tr.open("lift.kernel", 0, req, time.Now())
				t0 := time.Now()
				inst := k.Instantiate(legacy.Config{Width: liftW, Height: liftH, Seed: rng.next()})
				t1 := time.Now()
				r.tr.add("legacy.instantiate", top, req, t0, t1)
				lr, err := lift.Lift(k.Name, target(inst))
				t2 := time.Now()
				r.tr.add("lift.Lift", top, req, t1, t2)
				var verr, cerr error
				t3, t4 := t2, t2
				if err == nil {
					verr = lr.Verify()
					t3 = time.Now()
					r.tr.add("lift.Verify", top, req, t2, t3)
					_, cerr = lr.VerifyCompiled(0)
					t4 = time.Now()
					r.tr.add("lift.VerifyCompiled", top, req, t3, t4)
				}
				r.tr.close(top, t4)
				r.check(err == nil && verr == nil && cerr == nil, "lift %s: %v %v %v", k.Name, err, verr, cerr)
				d := t4.Sub(t1)
				res.lat = append(res.lat, d)
				perKernel[k.Name] = append(perKernel[k.Name], d)
				if err != nil {
					continue
				}
				samples[k.Name] = lr.Samples
				for _, pt := range lr.PhaseTimes {
					ps.phases[pt.Phase] += pt.Dur
				}
				ps.liftCall += t2.Sub(t1)
				ps.verify += t3.Sub(t2)
				ps.verifyComp += t4.Sub(t3)
				ps.samples += lr.Samples
				ps.insts += lr.TraceInsts
				ps.steps += lr.TraceSteps
			}
			passes = append(passes, ps)
			pass++
		}
		res.wall = time.Since(start)
		res.ops = len(res.lat)
		for _, k := range kernels {
			if samples[k.Name] == 0 {
				return nil, fmt.Errorf("lift %s never succeeded", k.Name)
			}
			res.classNs = append(res.classNs, nsPerSample(newDist(perKernel[k.Name]).median(), samples[k.Name]))
		}
		lat := newDist(res.lat)
		res.named = []namedFigure{
			{"lifts_per_s", "1/s", float64(res.ops) / res.wall.Seconds(), res.ops, fmt.Sprintf(" in %d passes", len(passes))},
			{"lift_p50_ms", "ms", lat.median(), len(lat), ""},
			{"lift_p90_ms", "ms", lat.quantile(0.9), len(lat), fmt.Sprintf(", %d beyond", lat.beyond(0.9))},
		}
		return res, nil
	}

	w.layers = func() error {
		n := time.Duration(len(passes))
		if n == 0 {
			return fmt.Errorf("lift-corpus traced window completed no pass")
		}
		perPassMS := func(d time.Duration) float64 { return float64(d/n) / 1e6 }
		var tot passStats
		tot.phases = map[lift.Phase]time.Duration{}
		for _, ps := range passes {
			for p, d := range ps.phases {
				tot.phases[p] += d
			}
			tot.liftCall += ps.liftCall
			tot.verify += ps.verify
			tot.verifyComp += ps.verifyComp
			tot.samples += ps.samples
			tot.insts += ps.insts
			tot.steps += ps.steps
		}
		for _, p := range liftPhases {
			r.setLayer("lift."+p+"_ms", perPassMS(tot.phases[lift.Phase(p)]))
		}
		r.setLayer("lift.lift_call_ms", perPassMS(tot.liftCall))
		r.setLayer("lift.verify_call_ms", perPassMS(tot.verify))
		r.setLayer("lift.verify_compiled_call_ms", perPassMS(tot.verifyComp))
		for _, k := range kernels {
			r.setLayer("lift."+k.Name+"_ms", newDist(perKernel[k.Name]).median())
		}
		r.setLayer("lift.samples", float64(tot.samples)/float64(n))
		r.setLayer("lift.extract_ns_per_sample", float64(tot.phases[lift.PhaseExtract])/float64(tot.samples))
		r.setLayer("vm.trace_insts", float64(tot.insts)/float64(n))
		r.setLayer("vm.trace_steps", float64(tot.steps)/float64(n))
		return nil
	}
	return w, nil
}
