package main

import (
	"helium/internal/legacy"
	"helium/internal/liftedkernels"
)

// metricSpec declares one reported metric.  BENCHMARK.json lists the same
// names, units and directions; a unit test keeps the two in step.
type metricSpec struct {
	name, unit, better string
}

// endToEnd is the metric set every workload reports untraced.  "op" is
// the workload's unit of work: one HTTP request on serve-mix, one
// Lift+Verify+VerifyCompiled on lift-corpus, one tier call on eval-tiers.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ns_per_sample", "ns", "lower"},
}

// requestGeometries are serve-mix's request sizes; legacy.Instantiate is
// timed per size.
var requestGeometries = [][2]int{{256, 192}, {512, 384}, {1024, 768}}

// liftPhases are lift.Phase names in pipeline order.
var liftPhases = []string{
	"localize", "trace", "stage-discovery", "buffer-reconstruction", "extract",
	"reduction", "unify", "canon", "verify", "compile",
}

// registerForm reports whether a generated kernel's stages all have a
// register-program form; reductions do not.
func registerForm(gk *liftedkernels.Kernel) bool { return gk.Red == nil }

// perLayer is the metric set every traced run reports, grouped by the
// module each metric measures.
func perLayer() []metricSpec {
	ms := []metricSpec{
		{"serve.queue_wait_ms", "ms", "lower"},
		{"serve.execute_ms", "ms", "lower"},
		{"serve.nonexec_ms", "ms", "lower"},
		{"serve.http_ms", "ms", "lower"},
		{"serve.client_write_ms", "ms", "lower"},
		{"serve.ttfb_ms", "ms", "lower"},
		{"serve.client_read_ms", "ms", "lower"},
		{"serve.post_p50_ms", "ms", "lower"},
		{"serve.get_p50_ms", "ms", "lower"},
		{"serve.requests", "count", "higher"},
		{"serve.shed", "count", "lower"},
		{"serve.limited", "count", "lower"},
		{"serve.degraded", "count", "lower"},
		{"serve.timeouts", "count", "lower"},
		{"serve.fallback_attempts", "count", "lower"},
	}
	for _, g := range requestGeometries {
		ms = append(ms, metricSpec{"legacy.instantiate_" + geoName(g[0], g[1]) + "_ms", "ms", "lower"})
	}
	ms = append(ms,
		metricSpec{"image.input_build_ms", "ms", "lower"},
		metricSpec{"liftedkernels.eval_ms", "ms", "lower"},
		metricSpec{"liftedkernels.gen_ns_per_sample", "ns", "lower"},
		metricSpec{"liftedkernels.gen_2w_ns_per_sample", "ns", "lower"},
		metricSpec{"liftedkernels.allocs_per_eval", "count", "lower"},
	)
	for _, k := range legacy.Kernels() {
		ms = append(ms,
			metricSpec{"liftedkernels." + k.Name + ".serial_ns_per_sample", "ns", "lower"},
			metricSpec{"liftedkernels." + k.Name + ".w2_ns_per_sample", "ns", "lower"},
			metricSpec{"liftedkernels." + k.Name + ".gb_per_s", "GB/s", "higher"},
		)
	}
	ms = append(ms,
		metricSpec{"ir.compiled_ns_per_sample", "ns", "lower"},
		metricSpec{"ir.compiled_allocs_per_eval", "count", "lower"},
	)
	for _, k := range legacy.Kernels() {
		if gk, ok := liftedkernels.Lookup(k.Name); ok && registerForm(gk) {
			ms = append(ms, metricSpec{"ir." + k.Name + ".compiled_ns_per_sample", "ns", "lower"})
		}
		ms = append(ms, metricSpec{"ir." + k.Name + ".interp_ns_per_sample", "ns", "lower"})
	}
	for _, p := range liftPhases {
		ms = append(ms, metricSpec{"lift." + p + "_ms", "ms", "lower"})
	}
	ms = append(ms,
		metricSpec{"lift.lift_call_ms", "ms", "lower"},
		metricSpec{"lift.verify_call_ms", "ms", "lower"},
		metricSpec{"lift.verify_compiled_call_ms", "ms", "lower"},
	)
	for _, k := range legacy.Kernels() {
		ms = append(ms, metricSpec{"lift." + k.Name + "_ms", "ms", "lower"})
	}
	ms = append(ms,
		metricSpec{"lift.samples", "count", "higher"},
		metricSpec{"lift.extract_ns_per_sample", "ns", "lower"},
		metricSpec{"vm.trace_insts", "count", "lower"},
		metricSpec{"vm.trace_steps", "count", "lower"},
		metricSpec{"runtime.alloc_bytes_per_op", "B", "lower"},
		metricSpec{"runtime.gc_cycles", "count", "lower"},
		metricSpec{"runtime.gc_pause_ms", "ms", "lower"},
		metricSpec{"bench.trace_overhead_pct", "%", "lower"},
		metricSpec{"bench.spans", "count", "lower"},
	)
	return ms
}
