package vm_test

import (
	"testing"

	"helium/internal/legacy"
	"helium/internal/trace"
	"helium/internal/vm"
)

// runAllocs returns the allocations of one untraced Machine.Run of the
// instance, excluding the Setup (memory reset and input load) before it.
func runAllocs(inst *legacy.Instance) float64 {
	m := vm.NewMachine(inst.Prog)
	setupOnly := testing.AllocsPerRun(5, func() { inst.Setup(m, true) })
	total := testing.AllocsPerRun(5, func() {
		inst.Setup(m, true)
		if err := m.Run(0); err != nil {
			panic(err)
		}
	})
	return total - setupOnly
}

// reusedTraceAllocs returns the allocations of collecting the instance's
// filter trace, write index included, into one reused InstTrace,
// excluding the Setup before it.  AllocsPerRun's warm-up run grows the
// trace's chunks; the measured runs refill them.
func reusedTraceAllocs(inst *legacy.Instance) float64 {
	m := vm.NewMachine(inst.Prog)
	tr := &trace.InstTrace{}
	setupOnly := testing.AllocsPerRun(5, func() { inst.Setup(m, true) })
	total := testing.AllocsPerRun(5, func() {
		inst.Setup(m, true)
		tr.Reset()
		if _, err := m.RunTraceStream(vm.TraceOptions{FilterEntry: inst.FilterEntry}, tr); err != nil {
			panic(err)
		}
		tr.BuildWriteIndex()
	})
	return total - setupOnly
}

// TestUntracedStepAllocFree gates the emulator's inner loop: an untraced
// run allocates nothing per executed instruction, so quadrupling the
// image (and the instruction count) leaves the allocation count of
// Machine.Run unchanged.  A traced run copies every record into the
// trace's slabs, which must cost a small constant number of allocations
// per chunk of records, not several per instruction; and a trace
// collected again into a reused InstTrace refills its chunks, so its
// allocation count is the same at both sizes too.
func TestUntracedStepAllocFree(t *testing.T) {
	k, ok := legacy.Lookup("boxblur3")
	if !ok {
		t.Fatal("boxblur3 missing from the corpus")
	}
	small := k.Instantiate(legacy.Config{Width: 32, Height: 16, Seed: 3})
	large := k.Instantiate(legacy.Config{Width: 64, Height: 32, Seed: 3})
	a, b := runAllocs(small), runAllocs(large)
	if a != b {
		t.Errorf("untraced Run allocates %v at 32x16 but %v at 64x32: allocations scale with instructions executed", a, b)
	}

	if a, b := reusedTraceAllocs(small), reusedTraceAllocs(large); a != b {
		t.Errorf("a trace collected into a reused InstTrace allocates %v at 32x16 but %v at 64x32: the reused chunks are not refilled", a, b)
	}

	// Traced: allocations per captured instruction stay far below one.
	const maxAllocsPerInst = 0.05
	for _, inst := range []*legacy.Instance{small, large} {
		m := vm.NewMachine(inst.Prog)
		var insts int
		allocs := testing.AllocsPerRun(3, func() {
			inst.Setup(m, true)
			res, err := m.RunTrace(vm.TraceOptions{FilterEntry: inst.FilterEntry})
			if err != nil {
				panic(err)
			}
			insts = res.Trace.Len()
		})
		if insts == 0 {
			t.Fatal("traced run captured no instructions")
		}
		if per := allocs / float64(insts); per > maxAllocsPerInst {
			t.Errorf("%dx%d: traced run made %.0f allocations for %d instructions (%.3f per instruction, bound %v)",
				inst.Width, inst.Height, allocs, insts, per, maxAllocsPerInst)
		}
		t.Logf("%dx%d: untraced Run %v allocations; traced %.0f allocations for %d instructions, %v into a reused trace",
			inst.Width, inst.Height, runAllocs(inst), allocs, insts, reusedTraceAllocs(inst))
	}
}
