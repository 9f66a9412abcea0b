package serve

import (
	"context"
	"io"
	"runtime"
	"testing"

	"helium/internal/faultpoint"
	"helium/internal/obs"
)

// TestZeroAllocSteadyState is the acceptance gate on the hot serving
// path: once a kernel is lifted and the pools are warm, a pixels-mode
// request at a stable geometry — admission, queue, worker handoff, input
// rebuild, tuned execution, response — allocates nothing.
func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately randomizes Get/Put under the race
		// detector, so the pooled path cannot promise zero allocations
		// there; the non-race CI pass still enforces the gate.
		t.Skip("race instrumentation defeats sync.Pool reuse")
	}
	faultpoint.Reset()
	s := New(Options{Workers: 1})
	s.Start()
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	n, err := s.InputSpec("brighten", 40, 24)
	if err != nil {
		t.Fatal(err)
	}
	pixels := make([]byte, n)
	for i := range pixels {
		pixels[i] = byte(i * 31)
	}
	req := request{w: 40, h: 24, pixels: pixels}
	var status int
	var backend string
	emit := func(r *result) { status, backend = r.status, r.backend }

	ctx := context.Background()
	for i := 0; i < 50; i++ { // warm the job, scratch and plane pools
		s.do(ctx, "brighten", &req, emit)
		if status != 200 {
			t.Fatalf("warmup request %d: status %d", i, status)
		}
	}
	if backend != "generated" {
		t.Fatalf("steady state serves via %q, want generated", backend)
	}

	runtime.GC() // settle pool victim caches before counting
	allocs := testing.AllocsPerRun(200, func() {
		s.do(ctx, "brighten", &req, emit)
	})
	if status != 200 {
		t.Fatalf("measured request finished with status %d", status)
	}
	if allocs != 0 {
		t.Fatalf("steady-state request allocates %.1f objects, want 0", allocs)
	}
}

// TestZeroAllocWithObservability re-runs the steady-state gate with the
// full flight recorder armed — metrics observing and an enabled
// info-level access logger — proving instrumentation costs no
// allocations on the hot serving path.
func TestZeroAllocWithObservability(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse")
	}
	faultpoint.Reset()
	s := New(Options{
		Workers: 1,
		Logger:  obs.NewLogger(io.Discard, obs.LevelInfo),
		Metrics: obs.NewRegistry(),
	})
	s.Start()
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	n, err := s.InputSpec("brighten", 40, 24)
	if err != nil {
		t.Fatal(err)
	}
	pixels := make([]byte, n)
	for i := range pixels {
		pixels[i] = byte(i * 31)
	}
	req := request{w: 40, h: 24, pixels: pixels}
	var status int
	emit := func(r *result) { status = r.status }

	ctx := context.Background()
	for i := 0; i < 50; i++ {
		s.do(ctx, "brighten", &req, emit)
		if status != 200 {
			t.Fatalf("warmup request %d: status %d", i, status)
		}
	}

	runtime.GC()
	allocs := testing.AllocsPerRun(200, func() {
		s.do(ctx, "brighten", &req, emit)
	})
	if status != 200 {
		t.Fatalf("measured request finished with status %d", status)
	}
	if allocs != 0 {
		t.Fatalf("instrumented steady-state request allocates %.1f objects, want 0", allocs)
	}
}

// TestZeroAllocPatternMode is the pattern-mode companion of the gate: a
// GET-style request (no client pixels) fills the pooled backing straight
// from its seed, so it too allocates nothing in steady state — no legacy
// instance, no reference computation, no input copy.  It covers a padded
// planar stencil, an interleaved kernel and a reduction-consuming chain.
func TestZeroAllocPatternMode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool reuse")
	}
	faultpoint.Reset()
	s := New(Options{Workers: 1})
	s.Start()
	t.Cleanup(func() { s.Shutdown(context.Background()) })

	for _, kernel := range []string{"boxblur3", "sharpen", "histeq"} {
		if _, err := s.InputSpec(kernel, 40, 24); err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		req := request{w: 40, h: 24, seed: 5}
		var status int
		var backend string
		emit := func(r *result) { status, backend = r.status, r.backend }

		ctx := context.Background()
		for i := 0; i < 50; i++ {
			s.do(ctx, kernel, &req, emit)
			if status != 200 {
				t.Fatalf("%s: warmup request %d: status %d", kernel, i, status)
			}
		}
		if backend != "generated" {
			t.Fatalf("%s: steady state serves via %q, want generated", kernel, backend)
		}

		runtime.GC()
		allocs := testing.AllocsPerRun(200, func() {
			s.do(ctx, kernel, &req, emit)
		})
		if status != 200 {
			t.Fatalf("%s: measured request finished with status %d", kernel, status)
		}
		if allocs != 0 {
			t.Errorf("%s: steady-state pattern request allocates %.1f objects, want 0", kernel, allocs)
		}
	}
}
