// Command perfbench is helium's benchmark.  It drives the program from
// outside — heliumd in-process over loopback HTTP, and the public
// functions of legacy, lift, ir and liftedkernels — on one of three
// seeded workloads, checks every output, and prints a report whose last
// line is one JSON object:
//
//	perfbench --workload serve-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off.  With --trace 1 it carries the per-layer metrics from a
// separate traced run, whose spans are written under .bench_build/spans.
// See README.md for the workloads and what each metric should move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

var nan = math.NaN()

// workload is one prepared workload: set up, with its inputs and
// expected outputs built, ready to measure windows.
type workload struct {
	setups []time.Duration // each set-up's duration; the median is reported
	// loop measures one window; it records spans when r.tr is set.
	loop func(window time.Duration) (*e2e, error)
	// layers records the per-layer figures a traced loop leaves behind
	// (metric deltas, replays); called once, after the traced loop.
	layers func() error
	close  func()
}

// workloads maps a workload name to its preparation.
var workloads = map[string]func(r *run) (*workload, error){
	"serve-mix":   serveMix,
	"lift-corpus": liftCorpusWorkload,
	"eval-tiers":  evalTiers,
}

// workloadOrder fixes the order probes run in.
var workloadOrder = []string{"serve-mix", "lift-corpus", "eval-tiers"}

func main() {
	workload := flag.String("workload", "", "serve-mix, lift-corpus or eval-tiers")
	seed := flag.Uint64("seed", 1, "workload seed: fixes every input and the request order")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	traced := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-mix|lift-corpus|eval-tiers --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if _, err := os.Stat("schedules.json"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root (schedules.json not found)")
		os.Exit(1)
	}
	window := time.Duration(*seconds * float64(time.Second))
	rep, err := measure(*workload, *seed, window, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for name := range rep.Metrics {
		if !validMetricName(name) {
			fmt.Fprintf(os.Stderr, "perfbench: invalid metric name %q\n", name)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last stdout line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run is one invocation's shared state: the outcome tally every check
// feeds, the tracer (nil when untraced) and the per-layer figures.
type run struct {
	workload string
	seed     uint64
	tr       *tracer
	traced   bool // a --trace 1 invocation: two half-windows, then probes
	probe    bool // a short traced pass filling another workload's layers

	mu        sync.Mutex
	attempted int
	failed    int
	broken    []string // run-level check failures (reconciliation, guards)
	layer     map[string]float64

	corpus []*lifted // the benchmark's own corpus lift, shared by every workload of the run
}

// lifts returns the benchmark's own lift of the corpus, lifting and
// verifying it on first use.
func (r *run) lifts() ([]*lifted, error) {
	if r.corpus != nil {
		return r.corpus, nil
	}
	scheds, err := loadSchedules("schedules.json")
	if err != nil {
		return nil, err
	}
	ls, err := liftCorpus(scheds)
	if err != nil {
		return nil, err
	}
	if err := verifyCorpus(ls); err != nil {
		return nil, err
	}
	r.corpus = ls
	return ls, nil
}

// check counts one checked operation; a false ok is a failure.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: failed: %s\n", r.workload, fmt.Sprintf(format, args...))
		}
	}
}

// tally adds a client-side count of attempts and failures.
func (r *run) tally(attempted, failed int) {
	r.mu.Lock()
	r.attempted += attempted
	r.failed += failed
	r.mu.Unlock()
}

// breakRun records a check that fails the whole run without being one
// operation: a /metrics disagreement or a violated guard.
func (r *run) breakRun(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.workload, msg)
	r.mu.Lock()
	r.broken = append(r.broken, msg)
	r.mu.Unlock()
}

// setLayer records a per-layer figure (first writer wins, so a probe
// never overwrites the main workload's measurement).
func (r *run) setLayer(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.layer[name]; !ok {
		r.layer[name] = v
	}
}

// e2e is one workload's end-to-end figures.
type e2e struct {
	setups  []time.Duration // each set-up's duration; the median is reported
	ops     int             // operations completed in the window
	wall    time.Duration   // the window's measured length
	lat     []time.Duration // per-operation latency
	tailQ   float64         // the workload's fixed tail percentile
	classNs []float64       // per-class median ns/sample; geomean reported
	// named are the workload's own figures under the names the design
	// notes use (req_per_s, lift_p90_ms, gen_ns_per_sample, ...),
	// printed in the human report.
	named []namedFigure
}

type namedFigure struct {
	name, unit string
	value      float64
	n          int
	note       string
}

// measure runs one invocation: untraced, the workload alone; traced, an
// untraced and a traced half-window of the workload (their difference is
// the tracing overhead) plus a short traced probe of each other workload
// so every per-layer metric is a measurement.
func measure(name string, seed uint64, window time.Duration, traced bool) (*report, error) {
	r := &run{workload: name, seed: seed, traced: traced, layer: map[string]float64{}}
	w, err := workloads[name](r)
	if err != nil {
		return nil, err
	}
	defer w.close()
	if !traced {
		if err := startWindowMemory(); err != nil {
			return nil, err
		}
		res, err := w.loop(window)
		if err != nil {
			return nil, err
		}
		res.setups = w.setups
		ms, err := endToEndMetrics(r, res)
		if err != nil {
			return nil, err
		}
		return r.finish(ms), nil
	}

	runtime.GC()
	plain, err := w.loop(window / 2)
	if err != nil {
		return nil, err
	}
	r.tr = newTracer()
	runtime.GC()
	rt0 := readRuntime()
	res, err := w.loop(window / 2)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().since(rt0)
	ops := float64(max(res.ops, 1))
	r.setLayer("runtime.alloc_bytes_per_op", rt.allocBytes/ops)
	r.setLayer("runtime.gc_cycles", rt.gcCycles)
	r.setLayer("runtime.gc_pause_ms", rt.gcPauseMS)
	pu, pt := newDist(plain.lat).median(), newDist(res.lat).median()
	r.setLayer("bench.trace_overhead_pct", 100*(pt-pu)/pu)
	fmt.Printf("trace overhead: op_p50_ms %.4f traced vs %.4f untraced (n=%d, %d)\n", pt, pu, len(res.lat), len(plain.lat))
	if err := w.layers(); err != nil {
		return nil, err
	}

	r.probe = true
	for _, other := range workloadOrder {
		if other != name {
			if err := probe(r, other); err != nil {
				return nil, fmt.Errorf("%s probe: %w", other, err)
			}
		}
	}
	r.workload = name
	r.setLayer("bench.spans", float64(len(r.tr.spans)))
	printSelfTimes(r.tr.spans)
	path, err := r.tr.write(".bench_build/spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)

	ms := map[string]metricValue{}
	for _, s := range perLayer() {
		v, ok := r.layer[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s was not measured", s.name)
		}
		ms[s.name] = metricValue{v, s.unit}
		fmt.Printf("  %-46s %14.4f %s\n", s.name, v, s.unit)
	}
	return r.finish(ms), nil
}

// probe runs a short traced pass of another workload for its layers.
func probe(r *run, name string) error {
	r.workload = name
	w, err := workloads[name](r)
	if err != nil {
		return err
	}
	defer w.close()
	if _, err := w.loop(probeWindow); err != nil {
		return err
	}
	return w.layers()
}

// probeWindow is the measured window of a probe pass.
const probeWindow = 2 * time.Second

// finish assembles the report.
func (r *run) finish(ms map[string]metricValue) *report {
	correct := r.failed == 0 && len(r.broken) == 0 && r.attempted > 0
	fmt.Printf("fail_frac %.6f (%d failed of %d attempted), correct=%v\n",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted, correct)
	return &report{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
}

// endToEndMetrics turns a workload's figures into the reported set and
// prints them, each with its sample count.
func endToEndMetrics(r *run, res *e2e) (map[string]metricValue, error) {
	if res.ops == 0 || len(res.lat) == 0 || len(res.setups) == 0 {
		return nil, fmt.Errorf("%s completed no operations", r.workload)
	}
	lat := newDist(res.lat)
	tail, err := lat.fixedTail(res.tailQ)
	if err != nil {
		return nil, fmt.Errorf("%s op_tail_ms: %w", r.workload, err)
	}
	setups := newDistSeconds(res.setups)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"setup_s":       setups.median(),
		"peak_rss_mb":   rss,
		"ops_per_s":     float64(res.ops) / res.wall.Seconds(),
		"op_p50_ms":     lat.median(),
		"op_tail_ms":    tail,
		"ns_per_sample": geomean(res.classNs),
	}
	notes := map[string]string{
		"setup_s":       fmt.Sprintf("median of %d set-ups", len(res.setups)),
		"peak_rss_mb":   "VmHWM",
		"ops_per_s":     fmt.Sprintf("n=%d over %.2fs", res.ops, res.wall.Seconds()),
		"op_p50_ms":     fmt.Sprintf("p50, n=%d", len(lat)),
		"op_tail_ms":    fmt.Sprintf("p%s, n=%d, %d beyond", pctName(res.tailQ), len(lat), lat.beyond(res.tailQ)),
		"ns_per_sample": fmt.Sprintf("geomean of %d class medians", len(res.classNs)),
	}
	q, v, _ := lat.tail()
	fmt.Printf("%s seed=%d: highest supported tail p%s = %.4f ms (n=%d)\n", r.workload, r.seed, pctName(q), v, len(lat))
	ms := map[string]metricValue{}
	for _, s := range endToEnd {
		v := vals[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return nil, fmt.Errorf("%s: %s is %v", r.workload, s.name, v)
		}
		ms[s.name] = metricValue{v, s.unit}
		fmt.Printf("  %-20s %14.4f %-4s (%s)\n", s.name, v, s.unit, notes[s.name])
	}
	for _, f := range res.named {
		fmt.Printf("  %-20s %14.4f %-4s (n=%d%s)\n", f.name, f.value, f.unit, f.n, f.note)
	}
	return ms, nil
}

// newDistSeconds is a distribution of durations in seconds.
func newDistSeconds(ds []time.Duration) dist {
	d := newDist(ds)
	for i := range d {
		d[i] /= 1e3
	}
	return d
}

// printSelfTimes prints the traced run's per-span-name self times.
func printSelfTimes(spans []span) {
	fmt.Printf("self time by span (%d spans):\n", len(spans))
	for _, s := range selfTimes(spans) {
		fmt.Printf("  %-34s n=%-7d total %10.2f ms  self %10.2f ms\n",
			s.Name, s.Count, float64(s.Total)/1e6, float64(s.Own)/1e6)
	}
}

// startWindowMemory returns the set-up's garbage to the OS and resets
// the kernel's peak-RSS mark, so VmHWM afterwards is the peak of the
// measured window.  Set-up peaks (heliumd's Warm lifts the corpus
// concurrently) vary run to run with GC timing; memory set-up keeps live
// still counts, as the window starts from it.
func startWindowMemory() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// runtimeSnap is the runtime/metrics figures the traced run reports.
type runtimeSnap struct {
	allocBytes, gcCycles, gcPauseMS float64
}

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	var snap runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		snap.gcCycles = float64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		// Pauses are bucketed; weight each bucket by its midpoint (its
		// finite edge for the open-ended ones).
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			mid := (lo + hi) / 2
			if math.IsInf(lo, -1) {
				mid = hi
			} else if math.IsInf(hi, 1) {
				mid = lo
			}
			snap.gcPauseMS += float64(c) * mid * 1e3
		}
	}
	return snap
}

func (a runtimeSnap) since(b runtimeSnap) runtimeSnap {
	return runtimeSnap{
		a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPauseMS - b.gcPauseMS,
	}
}
