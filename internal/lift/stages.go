// Multi-stage lifting.  A filter that pipelines through intermediate
// buffers (a two-pass separable blur writing a temporary plane) or
// scatters into an accumulator table (a histogram) is discovered here: the
// filter-on run's difference writes cluster into regions, the regions order
// into stages by first-write time, and each stage is lifted on its own
// with the previous stage's output region acting as its input buffer.
// Slicing stops at stage boundaries (extract.go resolves reads of the
// stage input region as stencil taps even when the trace wrote them), so
// every stage collapses to a single-stage kernel and the chain reproduces
// the whole filter.
package lift

import (
	"fmt"
	"sort"

	"helium/internal/image"
	"helium/internal/ir"
	"helium/internal/trace"
	"helium/internal/vm"
)

// stackWindow is how far below the initial stack pointer writes are still
// considered stack traffic.  The loader knows the host thread's stack
// extent (the original system reads it from the OS the same way its
// DynamoRIO clients do), so stack frames and spill slots never masquerade
// as output buffers regardless of how hot they are.
const stackWindow = 1 << 20

// Stage is one step of a lifted filter pipeline: a stencil kernel or a
// reduction, with the buffer geometry it reads and writes.  Stage inputs
// chain: stage 0 reads the injected source image, stage k reads stage
// k-1's output region.
type Stage struct {
	// Kernel is the stencil form; nil for reduction stages.
	Kernel *ir.Kernel
	// Red is the reduction form; nil for stencil stages.
	Red *ir.Reduction
	// In and Out are the stage's reconstructed buffer geometries.
	In  InputDesc
	Out OutputDesc
}

// writeRegion is one clustered region of filter writes, in first-write
// order.
type writeRegion struct {
	// addrs is the sorted set of unique written byte addresses.
	addrs []uint64
	// maxWrites is the largest per-byte write count: stencil outputs are
	// written once, reduction accumulators at least twice (init plus one
	// or more updates).
	maxWrites int
	// firstAt is the index in the memory trace of the region's first
	// write, which orders regions into pipeline stages.
	firstAt int
}

// stageRegions clusters the filter-on run's difference writes into stage
// output regions, ordered by first write.  Stack traffic is excluded by
// address: everything else the filter writes is a stage output.
func stageRegions(memTrace []trace.MemAccess) ([]writeRegion, error) {
	writes := make(map[uint64]int)
	firstAt := make(map[uint64]int)
	for i, acc := range memTrace {
		if !acc.Write {
			continue
		}
		for b := uint64(0); b < uint64(acc.Width); b++ {
			a := acc.Addr + b
			if writes[a] == 0 {
				firstAt[a] = i
			}
			writes[a]++
		}
	}
	addrs := make([]uint64, 0, len(writes))
	for a := range writes {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	if len(addrs) == 0 {
		return nil, fmt.Errorf("lift: profiling run recorded no writes")
	}

	stackLo := uint64(vm.StackTop) - stackWindow
	var regions []writeRegion
	for _, cluster := range clusterRegions(addrs) {
		lo, hi := cluster[0], cluster[len(cluster)-1]
		if hi <= uint64(vm.StackTop) && lo >= stackLo {
			continue // stack frames, locals, call arguments
		}
		r := writeRegion{addrs: cluster, firstAt: len(memTrace)}
		for _, a := range cluster {
			r.maxWrites = max(r.maxWrites, writes[a])
			r.firstAt = min(r.firstAt, firstAt[a])
		}
		regions = append(regions, r)
	}
	if len(regions) == 0 {
		return nil, fmt.Errorf("lift: every filter write landed on the stack; no output buffer found")
	}
	sort.Slice(regions, func(i, j int) bool { return regions[i].firstAt < regions[j].firstAt })
	return regions, nil
}

// stageInput converts a stage's output geometry into the next stage's
// input geometry.
func stageInput(out OutputDesc, interleaved bool) InputDesc {
	return InputDesc{
		Base:        out.Base,
		Stride:      out.Stride,
		Channels:    out.Channels,
		Interleaved: interleaved,
	}
}

// checkStageFootprint demands that a consumer stage's taps stay inside its
// producer's written extent: intermediate buffers have no padding, so a
// tap outside the producer would read bytes no stage defined.
func checkStageFootprint(consumer *ir.Kernel, producer OutputDesc) error {
	xlo, xhi, ylo, yhi, _, _ := footprint(consumer)
	if xlo < 0 || ylo < 0 || xhi >= producer.Width() || yhi >= producer.Rows {
		return fmt.Errorf("lift: stage %s taps x [%d,%d] y [%d,%d], outside its %dx%d intermediate input buffer",
			consumer.Name, xlo, xhi, ylo, yhi, producer.Width(), producer.Rows)
	}
	return nil
}

// stagePlaneSource wraps one stage's computed output (row-major samples)
// as the evaluation source of the next stage.  Intermediate buffers are
// planar; the plane is sized exactly to the stage extent, which
// checkStageFootprint guarantees covers every consumer tap.
func stagePlaneSource(data []byte, outW, outH int) ir.Source {
	p := image.NewPlane(outW, outH, 0)
	p.SetInterior(data)
	return ir.PlaneSource{P: p}
}

// stageDims returns the evaluation extents of stage st when the final
// stage renders at (outW, outH): stage extents track the final extent by
// the constant deltas recorded at lift time.
func stageDims(st *Stage, final *Stage, outW, outH int) (int, int) {
	if st.Red != nil {
		return outW, outH
	}
	fw, fh := finalDims(final)
	return outW + st.Kernel.OutWidth - fw, outH + st.Kernel.OutHeight - fh
}

// finalDims returns the lifted extents of the final stage: the output
// image for stencils, the input domain for reductions.
func finalDims(st *Stage) (int, int) {
	if st.Red != nil {
		return st.Red.DomW, st.Red.DomH
	}
	return st.Kernel.OutWidth, st.Kernel.OutHeight
}
