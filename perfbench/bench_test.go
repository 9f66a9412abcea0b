package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
)

func msDist(vs ...float64) dist {
	d := append(dist(nil), vs...)
	sort.Float64s(d)
	return d
}

func seqDist(n int) dist {
	d := make(dist, n)
	for i := range d {
		d[i] = float64(i + 1)
	}
	return d
}

func TestQuantileInterpolates(t *testing.T) {
	d := msDist(1, 2, 3, 4, 5)
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := d.quantile(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{{10000, 0.999}, {1000, 0.99}, {100, 0.9}, {20, 0.5}} {
		if q, _, ok := seqDist(c.n).tail(); !ok || q != c.wantQ {
			t.Errorf("n=%d: tail percentile %v (ok=%v), want %v", c.n, q, ok, c.wantQ)
		}
	}
	if _, _, ok := seqDist(19).tail(); ok {
		t.Error("n=19 leaves 9 samples beyond the median, tail reported a percentile")
	}
	ladder := []float64{0.999, 0.99, 0.9, 0.5}
	for n := 20; n <= 12000; n += 7 {
		d := seqDist(n)
		q, v, ok := d.tail()
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if d.beyond(q) < minBeyond || v != d.quantile(q) {
			t.Fatalf("n=%d: p%s has %d beyond (value %v)", n, pctName(q), d.beyond(q), v)
		}
		for _, higher := range ladder {
			if higher > q && d.beyond(higher) >= minBeyond {
				t.Fatalf("n=%d: reported p%s although p%s has %d beyond", n, pctName(q), pctName(higher), d.beyond(higher))
			}
		}
	}
}

func TestFixedTailNamesSampleShortfall(t *testing.T) {
	if _, err := seqDist(1000).fixedTail(0.99); err != nil {
		t.Fatalf("1000 samples support p99: %v", err)
	}
	_, err := seqDist(500).fixedTail(0.99)
	if err == nil || !strings.Contains(err.Error(), "n=500") || !strings.Contains(err.Error(), "p99") {
		t.Fatalf("500 samples: err = %v, want a p99 shortfall naming n", err)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean([]float64{2.5}); math.Abs(g-2.5) > 1e-12 {
		t.Errorf("geomean(2.5) = %v", g)
	}
	for _, vs := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if g := geomean(vs); !math.IsNaN(g) {
			t.Errorf("geomean(%v) = %v, want NaN", vs, g)
		}
	}
}

// A reduction's cost is normalised by the samples of its domain, not by
// the bytes of its bin table.
func TestReductionNormalisedPerDomainSample(t *testing.T) {
	k, _ := legacy.Lookup("hist256")
	inst := k.Instantiate(legacy.Config{Width: liftW, Height: liftH, Seed: liftSeed})
	res, err := lift.Lift(k.Name, target(inst))
	if err != nil {
		t.Fatal(err)
	}
	g := newGeometry(res)
	w, h := g.evalDims(1024, 768)
	if w != 1024 || h != 768 || g.channels != 1 {
		t.Fatalf("hist256 eval extents %dx%dx%d, want the 1024x768x1 domain", w, h, g.channels)
	}
	iw, ih := footprintInterior(res, w, h)
	interior := make([]byte, iw*ih)
	rng := splitmix(3)
	rng.fill(interior)
	in, err := buildInput(res, interior, iw, ih, w, h)
	if err != nil {
		t.Fatal(err)
	}
	gk, _ := liftedkernels.Lookup(k.Name)
	var sc liftedkernels.Scratch
	out, err := genSerial(gk, &sc, &in.img, w, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1024 {
		t.Fatalf("hist256 output is %d bytes, want a 256-bin table", len(out))
	}
	samples := evalSamples(w, h, g.channels)
	if samples != 786432 {
		t.Fatalf("hist256 samples = %d, want 786432 domain samples", samples)
	}
	if ns := nsPerSample(0.786432, samples); math.Abs(ns-1) > 1e-12 {
		t.Errorf("0.786432 ms over 786432 samples = %v ns/sample, want 1", ns)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer()...) {
		if !validMetricName(s.name) {
			t.Errorf("invalid metric name %q", s.name)
		}
		if seen[s.name] {
			t.Errorf("metric %q declared twice", s.name)
		}
		seen[s.name] = true
		if s.better != "lower" && s.better != "higher" {
			t.Errorf("%s: better = %q", s.name, s.better)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "a:b", "é", strings.Repeat("a", 65)} {
		if validMetricName(bad) {
			t.Errorf("validMetricName(%q) = true", bad)
		}
	}
	for _, good := range []string{"setup_s", "lift.stage-discovery_ms", "9x", strings.Repeat("a", 64)} {
		if !validMetricName(good) {
			t.Errorf("validMetricName(%q) = false", good)
		}
	}
}

func requestSeq(seed uint64, n, classes int) []int {
	out := make([]int, n)
	for i := range out {
		c, post := pick(seed, uint64(i), classes)
		out[i] = 2 * c
		if post {
			out[i]++
		}
	}
	return out
}

func TestRequestSequenceIsSeeded(t *testing.T) {
	const n, classes = 4000, 27
	a, b, c := requestSeq(7, n, classes), requestSeq(7, n, classes), requestSeq(8, n, classes)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 7 request %d: %d then %d", i, a[i], b[i])
		}
		if a[i] == c[i] {
			same++
		}
	}
	if same > n/4 {
		t.Errorf("seeds 7 and 8 agree on %d of %d requests", same, n)
	}
	posts, hit := 0, map[int]bool{}
	for _, v := range a {
		posts += v & 1
		hit[v/2] = true
	}
	if frac := float64(posts) / n; math.Abs(frac-0.75) > 0.03 {
		t.Errorf("POST share %.3f, want about 3/4", frac)
	}
	if len(hit) != classes {
		t.Errorf("sequence reached %d of %d classes", len(hit), classes)
	}
}

// Every complete block of the sequence sends each pair postsPerGet+1
// times, exactly once as a GET.
func TestRequestBlocksAreBalanced(t *testing.T) {
	const pairs = 27
	bl := int(blockLen(pairs))
	seq := requestSeq(5, 3*bl, pairs)
	for b := 0; b < 3; b++ {
		gets, posts := map[int]int{}, map[int]int{}
		for _, v := range seq[b*bl : (b+1)*bl] {
			if v&1 == 1 {
				posts[v/2]++
			} else {
				gets[v/2]++
			}
		}
		for p := 0; p < pairs; p++ {
			if gets[p] != 1 || posts[p] != postsPerGet {
				t.Fatalf("block %d pair %d: %d GETs, %d POSTs", b, p, gets[p], posts[p])
			}
		}
	}
}

const exposition = `# HELP helium_requests_total Eval requests by final HTTP status.
# TYPE helium_requests_total counter
helium_requests_total{status="200"} 120
helium_requests_total{status="503"} 2
helium_requests_total_extra{status="200"} 99
# TYPE helium_execute_seconds histogram
helium_execute_seconds_bucket{le="0.001"} 3
helium_execute_seconds_bucket{le="+Inf"} 10
helium_execute_seconds_sum 0.05
helium_execute_seconds_count 10
helium_backend_seconds_sum{backend="generated"} 0.02
helium_backend_seconds_count{backend="generated"} 10
helium_backend_attempts_total{backend="compiled",outcome="ok"} 1
helium_backend_attempts_total{backend="compiled",outcome="error"} 2
helium_backend_attempts_total{backend="generated",outcome="ok"} 10
helium_shed_total 2
`

func TestMetricsDelta(t *testing.T) {
	before, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	after := strings.NewReplacer(
		`{status="200"} 120`, `{status="200"} 170`,
		"_sum 0.05", "_sum 0.25", "_count 10\n", "_count 60\n",
		`_sum{backend="generated"} 0.02`, `_sum{backend="generated"} 0.07`,
		`_count{backend="generated"} 10`, `_count{backend="generated"} 60`,
	).Replace(exposition) + "helium_timeouts_total 1\n"
	a, err := parseMetrics(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	d := a.delta(before)
	if v := d.sum("helium_requests_total", `status="200"`); v != 50 {
		t.Errorf("200s delta = %v, want 50", v)
	}
	if v := d.sum("helium_requests_total"); v != 50 {
		t.Errorf("requests delta = %v, want 50 (a longer metric name must not match)", v)
	}
	if v := d.sum("helium_timeouts_total"); v != 1 {
		t.Errorf("a series new in the second scrape counts from zero: got %v", v)
	}
	if v := d.histMeanMS("helium_execute_seconds"); math.Abs(v-4) > 1e-9 {
		t.Errorf("execute mean = %v ms, want 4", v)
	}
	if v := d.histMeanMS("helium_backend_seconds", `backend="generated"`); math.Abs(v-1) > 1e-9 {
		t.Errorf("generated mean = %v ms, want 1", v)
	}
	if v := before.sum("helium_backend_attempts_total", `backend="compiled"`); v != 3 {
		t.Errorf("compiled attempts = %v, want 3", v)
	}
	if v := before.histMeanMS("helium_missing_seconds"); !math.IsNaN(v) {
		t.Errorf("mean of an unobserved histogram = %v, want NaN", v)
	}
	if _, err := parseMetrics(strings.NewReader("helium_x{a=\"b\"} notanumber\n")); err == nil {
		t.Error("a malformed sample line parsed")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "req", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "a", Start: 90, End: 120}, // runs past the parent
	}
	got := map[string]selfTime{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if own := got["req"].Own; own != 100-50-10 {
		t.Errorf("req self = %v, want 40ns", own)
	}
	if a := got["a"]; a.Count != 2 || a.Total != 60*time.Nanosecond || a.Own != a.Total {
		t.Errorf("a = %+v", a)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the benchmark
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, got []metricSpec, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricSpec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer())
}
