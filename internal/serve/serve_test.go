package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"helium/internal/faultpoint"
	"helium/internal/legacy"
	"helium/internal/schedule"
)

// corpusNames is the whole legacy corpus, pinned so a test failure names
// the kernel.
var corpusNames = []string{"blur2p", "boxblur3", "brighten", "clampsharp", "downsample2x", "hist256", "histeq", "sharpen", "upsample2x"}

// sharedServer lifts the corpus exactly once for every read-only test in
// the package; tests that mutate global state (faultpoints, breakers,
// overload) build their own servers.
var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedTS   *httptest.Server
)

func shared(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSrv = New(Options{})
		sharedSrv.Start()
		sharedSrv.Warm()
		sharedTS = httptest.NewServer(sharedSrv.Handler())
	})
	return sharedSrv, sharedTS
}

// evalResp is one decoded /v1/eval response.
type evalResp struct {
	status     int
	body       []byte
	backend    string
	degraded   string
	output     string
	retryAfter string
	errJSON    map[string]string
}

// eval performs one request: pixels == nil selects pattern mode (GET),
// otherwise the pixels POST as the input interior.
func eval(t *testing.T, ts *httptest.Server, kernel string, w, h int, seed uint64, pixels []byte) evalResp {
	t.Helper()
	url := fmt.Sprintf("%s/v1/eval?kernel=%s&width=%d&height=%d&seed=%d", ts.URL, kernel, w, h, seed)
	var (
		resp *http.Response
		err  error
	)
	if pixels == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/octet-stream", bytes.NewReader(pixels))
	}
	if err != nil {
		t.Fatalf("eval %s %dx%d: %v", kernel, w, h, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("eval %s: reading body: %v", kernel, err)
	}
	r := evalResp{
		status:     resp.StatusCode,
		body:       body,
		backend:    resp.Header.Get("X-Helium-Backend"),
		degraded:   resp.Header.Get("X-Helium-Degraded"),
		output:     resp.Header.Get("X-Helium-Output"),
		retryAfter: resp.Header.Get("Retry-After"),
	}
	if r.status != http.StatusOK {
		if err := json.Unmarshal(body, &r.errJSON); err != nil {
			t.Fatalf("eval %s: %d response body is not the typed JSON error: %q", kernel, r.status, body)
		}
		if r.errJSON["error"] == "" {
			t.Fatalf("eval %s: %d response carries no error message: %q", kernel, r.status, body)
		}
	}
	return r
}

// patternPixels returns the exact input interior the pattern mode would
// generate, so pixels-mode requests can be checked against pattern-mode
// ground truth.
func patternPixels(t *testing.T, kernel string, w, h int, seed uint64) []byte {
	t.Helper()
	k, ok := legacy.Lookup(kernel)
	if !ok {
		t.Fatalf("unknown corpus kernel %q", kernel)
	}
	return k.Instantiate(legacy.Config{Width: w, Height: h, Seed: seed}).InputInterior
}

// TestServeCorrectness drives every corpus kernel at several geometries in
// both request modes and checks each 200 byte-for-byte against the vm
// reference — a fresh re-emulation of the legacy binary, independent of
// every lifted path.
func TestServeCorrectness(t *testing.T) {
	s, ts := shared(t)
	geoms := []struct {
		w, h int
		seed uint64
	}{
		{40, 24, 1}, // the lift geometry
		{52, 30, 7}, // larger than lifted
		{16, 10, 3}, // smaller than lifted
	}
	for _, name := range corpusNames {
		for _, g := range geoms {
			want, err := s.Reference(name, g.w, g.h, g.seed)
			if err != nil {
				t.Fatalf("%s %dx%d: reference: %v", name, g.w, g.h, err)
			}
			r := eval(t, ts, name, g.w, g.h, g.seed, nil)
			if r.status != 200 {
				t.Fatalf("%s %dx%d pattern: status %d (%v)", name, g.w, g.h, r.status, r.errJSON)
			}
			if !bytes.Equal(r.body, want) {
				t.Fatalf("%s %dx%d pattern: served bytes differ from the binary's own output", name, g.w, g.h)
			}
			if r.backend != "generated" {
				t.Errorf("%s %dx%d pattern: served by %q, want the generated chain head", name, g.w, g.h, r.backend)
			}
			if r.degraded != "" {
				t.Errorf("%s %dx%d pattern: unexpected degradation %q", name, g.w, g.h, r.degraded)
			}

			// Pixels mode with the pattern's own interior must reproduce
			// the pattern response exactly.
			px := eval(t, ts, name, g.w, g.h, g.seed, patternPixels(t, name, g.w, g.h, g.seed))
			if px.status != 200 {
				t.Fatalf("%s %dx%d pixels: status %d (%v)", name, g.w, g.h, px.status, px.errJSON)
			}
			if !bytes.Equal(px.body, want) {
				t.Fatalf("%s %dx%d pixels: served bytes differ from the binary's own output", name, g.w, g.h)
			}
		}
	}
}

// TestServeArbitraryPixelsCrossBackend feeds random (non-pattern) client
// pixels and asserts the degraded compiled backend answers bit-identically
// to the generated chain head — cross-backend agreement on inputs no
// reference emulation can check.
func TestServeArbitraryPixelsCrossBackend(t *testing.T) {
	s, ts := shared(t)
	n, err := s.InputSpec("boxblur3", 48, 20)
	if err != nil {
		t.Fatal(err)
	}
	pixels := make([]byte, n)
	rnd := uint64(12345)
	for i := range pixels {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		pixels[i] = byte(rnd)
	}
	fast := eval(t, ts, "boxblur3", 48, 20, 1, pixels)
	if fast.status != 200 || fast.backend != "generated" {
		t.Fatalf("baseline: status %d backend %q", fast.status, fast.backend)
	}

	faultpoint.Enable(fpSlowBackend)
	t.Cleanup(faultpoint.Reset)
	slow := eval(t, ts, "boxblur3", 48, 20, 1, pixels)
	faultpoint.Reset()
	if slow.status != 200 {
		t.Fatalf("degraded request: status %d (%v)", slow.status, slow.errJSON)
	}
	if slow.backend != "compiled" {
		t.Fatalf("degraded request served by %q, want compiled", slow.backend)
	}
	if slow.degraded == "" {
		t.Fatal("degraded request carries no X-Helium-Degraded trail")
	}
	if !bytes.Equal(fast.body, slow.body) {
		t.Fatal("generated and compiled backends disagree on arbitrary client pixels")
	}
	driveBreakerClosed(t, ts, "boxblur3")
}

// driveBreakerClosed issues requests until the kernel's chain head serves
// again, so a test that tripped breakers leaves the shared server clean.
func driveBreakerClosed(t *testing.T, ts *httptest.Server, kernel string) {
	t.Helper()
	for i := 0; i < 30; i++ {
		r := eval(t, ts, kernel, 40, 24, 1, nil)
		if r.status == 200 && r.backend == "generated" {
			return
		}
	}
	t.Fatalf("%s: generated backend did not recover within 30 requests", kernel)
}

// TestHTTPValidation pins the typed-error status for each malformed
// request class.
func TestHTTPValidation(t *testing.T) {
	s, ts := shared(t)
	cases := []struct {
		name, url string
		status    int
	}{
		{"unknown kernel", "/v1/eval?kernel=nosuch", 404},
		{"missing kernel", "/v1/eval", 400},
		{"bad width", "/v1/eval?kernel=brighten&width=abc", 400},
		{"below minimum", "/v1/eval?kernel=brighten&width=4&height=4", 400},
		{"above maximum", "/v1/eval?kernel=brighten&width=5000&height=24", 413},
		{"bad seed", "/v1/eval?kernel=brighten&seed=-1", 400},
	}
	for _, tc := range cases {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: body is not the typed JSON error: %q", tc.name, body)
		}
	}

	// A wrong-length pixel body is a 400 naming the expected size.
	want, err := s.InputSpec("brighten", 40, 24)
	if err != nil {
		t.Fatal(err)
	}
	r := eval(t, ts, "brighten", 40, 24, 1, make([]byte, want+3))
	if r.status != 400 {
		t.Errorf("wrong-length body: status %d, want 400 (%v)", r.status, r.errJSON)
	}
}

// TestBodyLengthContract pins how a POST body's length is policed: a
// body shorter than its declared Content-Length is a 400 naming both
// lengths, a declared length above the limit is a 413 answered before
// any body byte is read, and a chunked body (length unknown up front)
// stays bounded by the same limit, is a 400 when cut short, and serves
// when whole and within the limit.
func TestBodyLengthContract(t *testing.T) {
	s := New(Options{MaxWidth: 64, MaxHeight: 64})
	s.Start()
	s.MarkReady()
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	const path = "/v1/eval?kernel=brighten&width=40&height=24"
	maxBody := (64+16)*(64+16)*4 + 1

	// raw sends a hand-written request head (with one framing header)
	// plus body over its own connection, optionally half-closes it, and
	// reads the response.
	raw := func(framing string, body []byte, halfClose bool) (*http.Response, map[string]string) {
		t.Helper()
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: helium\r\nContent-Type: application/octet-stream\r\n%s\r\n\r\n", path, framing)
		conn.Write(body)
		if halfClose {
			conn.(*net.TCPConn).CloseWrite()
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s, %d bytes sent: reading response: %v", framing, len(body), err)
		}
		defer resp.Body.Close()
		var e map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
			t.Fatalf("%s: body is not the typed JSON error (%v)", framing, err)
		}
		return resp, e
	}

	resp, e := raw("Content-Length: 960", make([]byte, 100), true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short body: status %d, want 400 (%s)", resp.StatusCode, e["error"])
	}
	if !strings.Contains(e["error"], "100") || !strings.Contains(e["error"], "960") {
		t.Errorf("short body: error %q does not name the received 100 and declared 960 bytes", e["error"])
	}

	// No body byte follows the head and the connection stays open: a
	// handler that tried to read the body would block until the deadline
	// instead of answering.
	resp, e = raw(fmt.Sprintf("Content-Length: %d", maxBody+1), nil, false)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized Content-Length: status %d, want 413 (%s)", resp.StatusCode, e["error"])
	}

	// A chunk announcing 0x64 bytes carries 10 before the client stops.
	resp, e = raw("Transfer-Encoding: chunked", append([]byte("64\r\n"), make([]byte, 10)...), true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated chunked body: status %d, want 400 (%s)", resp.StatusCode, e["error"])
	}

	// chunked POSTs a body whose length the client does not declare.
	chunked := func(body []byte) evalResp {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, io.MultiReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return evalResp{status: resp.StatusCode, body: out, backend: resp.Header.Get("X-Helium-Backend")}
	}
	if r := chunked(make([]byte, maxBody+1)); r.status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized chunked body: status %d, want 413 (%s)", r.status, r.body)
	}
	// The path's default seed is 1: a server that dropped the chunked body
	// and fell back to pattern mode would answer different bytes.
	pixels := patternPixels(t, "brighten", 40, 24, 9)
	r := chunked(pixels)
	if r.status != http.StatusOK {
		t.Fatalf("chunked body within the limit: status %d (%s)", r.status, r.body)
	}
	want, err := s.Reference("brighten", 40, 24, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.body, want) {
		t.Error("chunked body: served bytes differ from the binary's own output")
	}
}

// TestKernelsAndStatsEndpoints checks the observability surfaces stay
// well-formed and reflect the registry.
func TestKernelsAndStatsEndpoints(t *testing.T) {
	_, ts := shared(t)
	resp, err := http.Get(ts.URL + "/v1/kernels")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []kernelInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatalf("decoding /v1/kernels: %v", err)
	}
	if len(infos) != len(corpusNames) {
		t.Fatalf("/v1/kernels lists %d kernels, want %d", len(infos), len(corpusNames))
	}
	for _, info := range infos {
		if info.State != "ready" {
			t.Errorf("kernel %s: state %q after warm, want ready", info.Name, info.State)
		}
		if len(info.Hash) != 12 {
			t.Errorf("kernel %s: hash %q, want 12 hex chars", info.Name, info.Hash)
		}
		if _, ok := info.Breakers["generated"]; !ok {
			t.Errorf("kernel %s: no generated breaker state", info.Name)
		}
	}

	var st Stats
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /v1/stats: %v", err)
	}
	if st.Requests == 0 || st.OK == 0 {
		t.Errorf("stats show no traffic after the correctness tests: %+v", st)
	}
}

// TestRegistryInternsAndSingleflights asserts concurrent first requests
// share one lift and one entry.
func TestRegistryInternsAndSingleflights(t *testing.T) {
	opts := Options{}.withDefaults()
	reg := newRegistry(opts, newMetrics(opts.Metrics))
	const n = 8
	entries := make([]*entry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := reg.resolve("brighten")
			if err != nil {
				t.Errorf("resolve: %v", err)
				return
			}
			e.ensure()
			entries[i] = e
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatal("concurrent resolves returned distinct entries for one name")
		}
	}
	e := entries[0]
	if e.rej != nil || e.err != nil {
		t.Fatalf("brighten poisoned: rej=%v err=%v", e.rej, e.err)
	}
	if len(e.chain) == 0 {
		t.Fatal("brighten has an empty degradation chain after init")
	}
	if len(reg.byHash) != 1 || len(reg.byName) != 1 {
		t.Fatalf("registry interned %d hashes / %d names, want 1/1", len(reg.byHash), len(reg.byName))
	}
}

// TestCompiledRungSchedule pins the compiled rung's schedule: the tuned
// set contributes only its fusion strategy, and the worker count is
// always the server's intra-request EvalWorkers (at least 1) — a set's
// Workers 0 must not turn one request into GOMAXPROCS goroutines, and a
// server without a set still honours EvalWorkers > 1.  The rung's output
// under that schedule must equal the interpreter's.
func TestCompiledRungSchedule(t *testing.T) {
	fused := func(workers int) *schedule.Set {
		return &schedule.Set{Kernels: map[string]*schedule.Schedule{
			"blur2p": {Fusion: schedule.SlidingWindow, Workers: workers},
		}}
	}
	cases := []struct {
		name        string
		set         *schedule.Set
		evalWorkers int
		want        schedule.Schedule
	}{
		{"nil set, default workers", nil, 0, schedule.Schedule{Fusion: schedule.Materialize, Workers: 1}},
		{"nil set, 3 workers", nil, 3, schedule.Schedule{Fusion: schedule.Materialize, Workers: 3}},
		{"fused set, workers 0", fused(0), 0, schedule.Schedule{Fusion: schedule.SlidingWindow, Workers: 1}},
		{"fused set, workers 4", fused(4), 2, schedule.Schedule{Fusion: schedule.SlidingWindow, Workers: 2}},
	}
	for _, tc := range cases {
		opts := Options{Schedules: tc.set, EvalWorkers: tc.evalWorkers}.withDefaults()
		reg := newRegistry(opts, newMetrics(opts.Metrics))
		e, err := reg.resolve("blur2p")
		if err != nil {
			t.Fatal(err)
		}
		e.ensure()
		if e.rej != nil || e.err != nil {
			t.Fatalf("%s: blur2p poisoned: rej=%v err=%v", tc.name, e.rej, e.err)
		}
		if e.sched == nil || *e.sched != tc.want {
			t.Errorf("%s: compiled rung schedule = %s, want %s", tc.name, e.sched, &tc.want)
		}
		rs := &reqScratch{}
		req := &request{w: 37, h: 29, seed: 9}
		if err := e.buildInput(rs, req); err != nil {
			t.Fatal(err)
		}
		outW, outH := e.outDims(req.w, req.h)
		want, err := e.evalBackend(beInterp, rs, req, outW, outH)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.evalBackend(beCompiled, rs, req, outW, outH)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: compiled rung = %d bytes, %v; want the interpreter's %d bytes", tc.name, len(got), err, len(want))
		}
	}
}

// TestPoisonedLiftCachesTypedRejection arms a lift-phase fault on a fresh
// server and asserts the rejection is typed, phase-tagged, and cached —
// the second request answers from the poisoned entry without re-lifting.
func TestPoisonedLiftCachesTypedRejection(t *testing.T) {
	faultpoint.Enable("lift.corrupt-input")
	t.Cleanup(faultpoint.Reset)
	s := New(Options{})
	s.Start()
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	first := eval(t, ts, "brighten", 40, 24, 1, nil)
	if first.status != 422 {
		t.Fatalf("poisoned lift: status %d, want 422 (%v)", first.status, first.errJSON)
	}
	if first.errJSON["phase"] == "" {
		t.Fatalf("poisoned lift: 422 carries no rejection phase: %v", first.errJSON)
	}

	// Disarm: a cached poison must keep answering 422; a re-lift would
	// now succeed and betray the cache.
	faultpoint.Reset()
	second := eval(t, ts, "brighten", 40, 24, 1, nil)
	if second.status != 422 || second.errJSON["phase"] != first.errJSON["phase"] {
		t.Fatalf("poison not cached: second request got %d phase %q, want 422 phase %q",
			second.status, second.errJSON["phase"], first.errJSON["phase"])
	}
}

// overloadServer returns a server with the slow-backend fault armed and a
// started slow request occupying a worker, for the overload tests.
func overloadServer(t *testing.T, opts Options) (*Server, chan int) {
	t.Helper()
	faultpoint.Reset()
	s := New(opts)
	s.Start()
	t.Cleanup(func() {
		faultpoint.Reset()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	if _, err := s.InputSpec("brighten", 40, 24); err != nil { // lift before arming faults
		t.Fatal(err)
	}
	faultpoint.Enable(fpSlowBackend)

	first := make(chan int, 1)
	go s.do(context.Background(), "brighten", &request{w: 40, h: 24, seed: 1},
		func(r *result) { first <- r.status })
	time.Sleep(80 * time.Millisecond) // the worker is now inside the injected delay
	return s, first
}

// TestQueueShedsWhenFull pins bounded admission: one worker busy, one
// queue slot taken, the next request sheds with a typed 503.
func TestQueueShedsWhenFull(t *testing.T) {
	s, first := overloadServer(t, Options{
		Workers: 1, QueueDepth: 1, PerKernel: 4,
		SlowBackendDelay: 400 * time.Millisecond,
	})
	second := make(chan int, 1)
	go s.do(context.Background(), "brighten", &request{w: 40, h: 24, seed: 1},
		func(r *result) { second <- r.status })
	time.Sleep(40 * time.Millisecond) // the second request is queued

	var shedRes result
	s.do(context.Background(), "brighten", &request{w: 40, h: 24, seed: 1},
		func(r *result) { shedRes = *r })
	if shedRes.status != 503 || shedRes.retryAfter <= 0 {
		t.Fatalf("third request got %d retryAfter %d, want a shed 503 with Retry-After",
			shedRes.status, shedRes.retryAfter)
	}
	if got := <-first; got != 200 {
		t.Fatalf("first (slow) request got %d, want a degraded 200", got)
	}
	if got := <-second; got != 200 {
		t.Fatalf("queued request got %d, want a degraded 200", got)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("shed counter %d, want 1", st.Shed)
	}
}

// TestPerKernelConcurrencyLimit pins the 429: with one slot, a second
// in-flight request for the same kernel is refused immediately.
func TestPerKernelConcurrencyLimit(t *testing.T) {
	s, first := overloadServer(t, Options{
		Workers: 1, QueueDepth: 8, PerKernel: 1,
		SlowBackendDelay: 400 * time.Millisecond,
	})
	var limRes result
	s.do(context.Background(), "brighten", &request{w: 40, h: 24, seed: 1},
		func(r *result) { limRes = *r })
	if limRes.status != 429 || limRes.retryAfter <= 0 {
		t.Fatalf("second request got %d retryAfter %d, want 429 with Retry-After",
			limRes.status, limRes.retryAfter)
	}
	if got := <-first; got != 200 {
		t.Fatalf("first (slow) request got %d, want a degraded 200", got)
	}
	if st := s.Stats(); st.Limited != 1 {
		t.Fatalf("limited counter %d, want 1", st.Limited)
	}
}

// TestDeadlineReturns504AndRecyclesResources expires a request's context
// mid-execution, asserts the typed 504 arrives immediately, and that the
// abandoned job's scratch and kernel slot are recycled for the next
// request.
func TestDeadlineReturns504AndRecyclesResources(t *testing.T) {
	faultpoint.Reset()
	s := New(Options{Workers: 1, PerKernel: 1, SlowBackendDelay: 300 * time.Millisecond})
	s.Start()
	t.Cleanup(func() {
		faultpoint.Reset()
		s.Shutdown(context.Background())
	})
	if _, err := s.InputSpec("brighten", 40, 24); err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable(fpSlowBackend)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	var res result
	s.do(ctx, "brighten", &request{w: 40, h: 24, seed: 1}, func(r *result) { res = *r })
	if res.status != 504 {
		t.Fatalf("expired request got %d, want 504", res.status)
	}
	if waited := time.Since(start); waited > 250*time.Millisecond {
		t.Fatalf("504 took %v — the handler waited for the worker instead of abandoning", waited)
	}

	// The worker still holds the job; once it finishes it must release
	// the single per-kernel slot so the kernel is servable again.
	faultpoint.Reset()
	time.Sleep(350 * time.Millisecond)
	var again result
	s.do(context.Background(), "brighten", &request{w: 40, h: 24, seed: 1}, func(r *result) { again = *r })
	if again.status != 200 {
		t.Fatalf("request after an abandoned job got %d, want 200", again.status)
	}
	if st := s.Stats(); st.Timeouts != 1 {
		t.Fatalf("timeout counter %d, want 1", st.Timeouts)
	}
}

// TestReadyzGatesOnWarm pins the readiness lifecycle: a started but
// unwarmed server is live yet unready (load balancers must not route to
// it until every kernel's lift outcome is cached), and MarkReady is the
// lazy-warming escape hatch.
func TestReadyzGatesOnWarm(t *testing.T) {
	s := New(Options{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "warming") {
		t.Fatalf("unwarmed readyz = %d %q, want 503 warming", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("unwarmed healthz = %d, want 200 (live while warming)", code)
	}
	s.MarkReady()
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("marked-ready readyz = %d %q, want 200 ready", code, body)
	}
}

// TestGracefulShutdownDrains starts a real listener, parks a slow request
// in the worker, and shuts down: the in-flight request must complete with
// its degraded 200, Shutdown must return cleanly, and the listener must
// be closed afterwards.
func TestGracefulShutdownDrains(t *testing.T) {
	faultpoint.Reset()
	s := New(Options{Workers: 2, SlowBackendDelay: 300 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)
	if _, err := s.InputSpec("brighten", 40, 24); err != nil {
		t.Fatal(err)
	}
	faultpoint.Enable(fpSlowBackend)
	t.Cleanup(faultpoint.Reset)

	type outcome struct {
		status  int
		backend string
	}
	inflight := make(chan outcome, 1)
	go func() {
		resp, err := http.Get(base + "/v1/eval?kernel=brighten")
		if err != nil {
			inflight <- outcome{}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- outcome{resp.StatusCode, resp.Header.Get("X-Helium-Backend")}
	}()
	time.Sleep(80 * time.Millisecond) // the request is inside the injected delay

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	got := <-inflight
	if got.status != 200 || got.backend != "compiled" {
		t.Fatalf("in-flight request during drain got %d via %q, want a degraded 200 via compiled",
			got.status, got.backend)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after Shutdown, want nil", err)
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting connections after Shutdown")
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}
