package serve

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"helium/internal/legacy"
)

// TestPatternInputMatchesInstantiate pins the invariant the pattern-mode
// fast path rests on: filling the pooled backing from the seed yields
// exactly the input interior the legacy binary's own Instantiate builds,
// for every corpus kernel, at odd, tiny, lift-sized and large geometries.
func TestPatternInputMatchesInstantiate(t *testing.T) {
	s, _ := shared(t)
	type geom struct{ w, h int }
	geoms := []geom{{40, 24}, {257, 193}, {1024, 768}}
	for w := 12; w <= 17; w++ {
		geoms = append(geoms, geom{w, 6})
	}
	for _, name := range corpusNames {
		e, err := s.reg.resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		e.ensure()
		if e.rej != nil || e.err != nil || e.srcErr != nil {
			t.Fatalf("%s: not servable from a pattern fill (rej=%v err=%v srcErr=%v)", name, e.rej, e.err, e.srcErr)
		}
		k, _ := legacy.Lookup(name)
		rs := &reqScratch{}
		for _, g := range geoms {
			for _, seed := range []uint64{1, 0x5eed} {
				req := &request{w: g.w, h: g.h, seed: seed}
				if err := e.buildInput(rs, req); err != nil {
					t.Fatalf("%s %dx%d seed %d: %v", name, g.w, g.h, seed, err)
				}
				var got []byte
				if e.interleaved {
					got = rs.inter.Interior()
				} else {
					got = rs.plane.Interior()
				}
				want := k.Instantiate(legacy.Config{Width: g.w, Height: g.h, Seed: seed}).InputInterior
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %dx%d seed %d: pattern fill differs from Instantiate's input interior", name, g.w, g.h, seed)
				}
			}
		}
	}
}

// TestVMRungServesWhenChainIsOpen forces every lifted backend off by
// tripping its breaker: a pattern-mode request must then reach the vm
// rung, which builds the legacy instance on demand and answers the
// binary's own bytes, while a pixels-mode request — which vm cannot
// serve — gets the typed 500.
func TestVMRungServesWhenChainIsOpen(t *testing.T) {
	s := New(Options{TripAfter: 1, ProbeAfter: 1 << 30})
	s.Start()
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	const kernel, w, h, seed = "boxblur3", 52, 30, 7
	want, err := s.Reference(kernel, w, h, seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.reg.resolve(kernel)
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range []backendID{beGenerated, beCompiled, beInterp} {
		br := &e.breakers[be]
		br.allow()
		br.report(false)
		if st := br.state(); st != "open" {
			t.Fatalf("%s breaker is %q after a failure with TripAfter 1, want open", backendNames[be], st)
		}
	}

	r := eval(t, ts, kernel, w, h, seed, nil)
	if r.status != 200 || r.backend != "vm" {
		t.Fatalf("pattern request with the chain open: status %d via %q (%v), want 200 via vm", r.status, r.backend, r.errJSON)
	}
	if !bytes.Equal(r.body, want) {
		t.Fatal("vm rung bytes differ from Server.Reference")
	}
	for _, be := range e.chain {
		if note := backendNames[be] + ":breaker-open"; !strings.Contains(r.degraded, note) {
			t.Errorf("degradation trail %q does not name %s", r.degraded, note)
		}
	}

	px := eval(t, ts, kernel, w, h, seed, patternPixels(t, kernel, w, h, seed))
	if px.status != 500 || px.errJSON["error"] != "every eligible backend failed" {
		t.Fatalf("pixels request with the chain open: status %d %v, want the typed 500", px.status, px.errJSON)
	}
	if ok := s.Stats().OK; ok != 1 {
		t.Errorf("stats count %d OK responses, want 1", ok)
	}
}
