package vm_test

import (
	"bytes"
	"maps"
	"reflect"
	"testing"

	"helium/internal/legacy"
	"helium/internal/trace"
	"helium/internal/vm"
)

// TestFoldedRunMatchesTrace is the differential between the instrumented
// filter-on run and the one-entry tracer over the corpus: where the
// folded run traces only extents of the filter, its records, dump, step
// count and filter-call count equal the one-entry trace's, record for
// record.
func TestFoldedRunMatchesTrace(t *testing.T) {
	for _, k := range legacy.Kernels() {
		for _, cfg := range []legacy.Config{{Width: 40, Height: 24, Seed: 1}, {Width: 21, Height: 9, Seed: 7}} {
			t.Run(k.Name+"/"+cfg.String(), func(t *testing.T) {
				inst := k.Instantiate(cfg)
				m := vm.NewMachine(inst.Prog)
				inst.Setup(m, false)
				off, err := m.RunCoverage(vm.CoverageOptions{})
				if err != nil {
					t.Fatalf("off-run: %v", err)
				}
				inst.Setup(m, true)
				folded := &trace.InstTrace{}
				on, err := m.RunCoverage(vm.CoverageOptions{Baseline: off.Blocks, Sink: folded})
				if err != nil {
					t.Fatalf("folded run: %v", err)
				}
				inst.Setup(m, true)
				single := &trace.InstTrace{}
				sr, err := m.RunTraceStream(vm.TraceOptions{FilterEntry: inst.FilterEntry}, single)
				if err != nil {
					t.Fatalf("one-entry trace: %v", err)
				}

				if len(on.Extents) != 1 || on.Extents[inst.FilterEntry] != sr.FilterCalls || sr.FilterCalls == 0 {
					t.Fatalf("folded run traced extents %#x; the filter %#x was entered %d times", on.Extents, inst.FilterEntry, sr.FilterCalls)
				}
				if on.TraceErr != nil {
					t.Fatalf("folded run trace error: %v", on.TraceErr)
				}
				if on.Steps != sr.Steps || on.Insts != sr.Insts {
					t.Errorf("folded run: %d steps, %d records; one-entry trace: %d steps, %d records", on.Steps, on.Insts, sr.Steps, sr.Insts)
				}
				if folded.Len() != single.Len() {
					t.Fatalf("folded trace has %d records, one-entry trace %d", folded.Len(), single.Len())
				}
				for i := 0; i < folded.Len(); i++ {
					if g, w := folded.At(i), single.At(i); !reflect.DeepEqual(g, w) {
						t.Fatalf("record %d differs:\n got:  %+v\n want: %+v", i, *g, *w)
					}
				}
				if !maps.EqualFunc(on.Dump.Pages, sr.Dump.Pages, bytes.Equal) {
					t.Error("dump pages differ")
				}
			})
		}
	}
}
