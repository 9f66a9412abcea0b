package vm

import (
	"fmt"
	"slices"

	"helium/internal/faultpoint"
	"helium/internal/isa"
	"helium/internal/trace"
)

// DefaultMaxSteps bounds a run when the caller does not specify a limit.
const DefaultMaxSteps uint64 = 500_000_000

// fpTruncateTrace fails the trace run after a short prefix, modeling a
// capture that died mid-filter (the paper's traces come from an external
// Pin tool, which can be killed or run out of disk).
var fpTruncateTrace = faultpoint.Register("trace.truncate",
	"abort the instruction trace after 256 records")

// fpTruncateAfter is the record count at which the armed faultpoint fires.
const fpTruncateAfter = 256

// CoverageOptions configures a coverage run (paper section 3.1).  Without
// a Baseline it is a plain screening run that only records the covered
// blocks.  With one it is the single instrumented filter-on run: every
// block it covers outside the baseline is a difference block, and the run
// records the call targets and memory accesses of difference blocks and
// traces every dynamic extent that starts at a difference block which is
// a static call target (paper section 4.1's start/stop rule, applied to a
// set of entries instead of one).
type CoverageOptions struct {
	// MaxSteps bounds the number of executed instructions (0 = default).
	MaxSteps uint64
	// Baseline lists the block leaders covered by the baseline (filter-off)
	// run, as CoverageResult.Blocks reports them.  Nil disables profiling
	// and tracing.
	Baseline []uint32
	// Sink receives the instruction records of the traced extents.  Nil
	// disables tracing (the run still profiles the difference).
	Sink trace.Sink
	// MaxTraceInsts bounds the number of emitted records (0 = unlimited).
	MaxTraceInsts int
}

// CoverageResult is the outcome of a coverage run.
type CoverageResult struct {
	// Blocks lists the covered basic block leaders in address order.
	Blocks []uint32
	// Diff lists the covered leaders outside the baseline, in address
	// order (profiled runs only).
	Diff []uint32
	// CallTargets maps call instruction addresses inside difference blocks
	// to the set of dynamic callee entry addresses (profiled runs only).
	CallTargets map[uint32]map[uint32]bool
	// MemTrace is the memory access trace of difference blocks (profiled
	// runs only).
	MemTrace []trace.MemAccess
	// Extents counts the traced extents by entry address.
	Extents map[uint32]int
	// Dump is the page-granularity memory dump of memory the traced
	// extents touched: read pages captured eagerly, written pages at
	// extent exit.
	Dump *trace.MemDump
	// Insts is the number of instruction records emitted to the sink.
	Insts int
	// TraceErr is the error that stopped the trace capture early (the
	// MaxTraceInsts cap, the trace.truncate faultpoint or a sink error).
	// The run itself went on to the end: no extent started after it.
	TraceErr error
	// Steps is the number of instructions executed.
	Steps uint64
}

// RunCoverage executes the program from its current state until it halts,
// recording what the options ask for.
func (m *Machine) RunCoverage(opts CoverageOptions) (*CoverageResult, error) {
	r := m.newRun("coverage run", opts.MaxSteps)
	if opts.Baseline != nil {
		r.profile = make([]bool, len(m.Prog.Insts))
		for i := range r.profile {
			r.profile[i] = true
		}
		for _, b := range opts.Baseline {
			if idx, ok := m.Prog.Lookup(b); ok {
				r.profile[idx] = false
			}
		}
		r.callTargets = make(map[uint32]map[uint32]bool)
		if opts.Sink != nil {
			// Extents start at difference blocks that are static call
			// targets.
			r.entry = make([]bool, len(m.Prog.Insts))
			for i := range m.Prog.Insts {
				in := &m.Prog.Insts[i]
				if in.Op != isa.CALL || in.Sym != "" {
					continue
				}
				if idx, ok := m.Prog.Lookup(in.Target); ok && r.profile[idx] && r.leader[idx] {
					r.entry[idx] = true
				}
			}
			r.sink, r.maxTraceInsts = opts.Sink, opts.MaxTraceInsts
		}
	}
	if err := r.run(true); err != nil {
		return nil, err
	}
	res := &CoverageResult{
		CallTargets: r.callTargets,
		MemTrace:    r.memTrace,
		Extents:     r.extents,
		Dump:        r.dump,
		Insts:       r.insts,
		TraceErr:    r.traceErr,
		Steps:       m.steps,
	}
	for i, hit := range r.covered {
		if !hit {
			continue
		}
		addr := m.Prog.Insts[i].Addr
		res.Blocks = append(res.Blocks, addr)
		if r.profile != nil && r.profile[i] {
			res.Diff = append(res.Diff, addr)
		}
	}
	slices.Sort(res.Blocks)
	res.Blocks = slices.Compact(res.Blocks)
	slices.Sort(res.Diff)
	res.Diff = slices.Compact(res.Diff)
	return res, nil
}

// TraceOptions configures a detailed instruction trace capture run of one
// function (paper section 4.1).
type TraceOptions struct {
	// MaxSteps bounds the number of executed instructions (0 = default).
	MaxSteps uint64
	// FilterEntry is the entry address of the filter function selected by
	// code localization.  Tracing is active from each entry to the matching
	// return and includes functions the filter calls.
	FilterEntry uint32
	// MaxTraceInsts bounds the number of captured dynamic instructions
	// (0 = unlimited).
	MaxTraceInsts int
}

// StreamResult is the outcome of a streaming trace run: everything RunTrace
// reports except the collected instruction records, which went to the sink.
type StreamResult struct {
	// Dump is the page-granularity memory dump of memory touched by the
	// filter function: read pages captured eagerly, written pages at filter
	// exit.
	Dump *trace.MemDump
	// FilterCalls is the number of times the filter function was entered.
	FilterCalls int
	// Insts is the number of dynamic instruction records emitted.
	Insts int
	// Steps is the total number of instructions executed (traced or not).
	Steps uint64
}

// TraceResult is the outcome of a batch trace capture run.
type TraceResult struct {
	// Trace is the captured dynamic instruction trace.
	Trace *trace.InstTrace
	// Dump is the page-granularity memory dump of memory touched by the
	// filter function: read pages captured eagerly, written pages at filter
	// exit.
	Dump *trace.MemDump
	// FilterCalls is the number of times the filter function was entered.
	FilterCalls int
	// Steps is the total number of instructions executed (traced or not).
	Steps uint64
}

// RunTraceStream executes the program from its current state until it
// halts, streaming one trace.DynInst per dynamic instruction executed
// inside the filter function (including its callees) to sink.  Each
// record's Effects (with their Srcs) and AddrRefs live in buffers the
// tracer reuses for the next instruction, so a sink copies what it keeps
// (the trace.Sink contract; InstTrace.Emit does).  The memory dump is
// still accumulated here because only the emulator can snapshot pages
// before later writes disturb them.  A trace error (the MaxTraceInsts cap,
// the trace.truncate faultpoint, a sink error) ends the run.
func (m *Machine) RunTraceStream(opts TraceOptions, sink trace.Sink) (*StreamResult, error) {
	r := m.newRun("trace run", opts.MaxSteps)
	r.entry = make([]bool, len(m.Prog.Insts))
	if idx, ok := m.Prog.Lookup(opts.FilterEntry); ok {
		r.entry[idx] = true
	}
	r.sink, r.maxTraceInsts = sink, opts.MaxTraceInsts
	if err := r.run(false); err != nil {
		return nil, err
	}
	return &StreamResult{
		Dump:        r.dump,
		FilterCalls: r.extents[opts.FilterEntry],
		Insts:       r.insts,
		Steps:       m.steps,
	}, nil
}

// RunTrace is the batch form of RunTraceStream: it collects the streamed
// records into an InstTrace with its write index built, ready for the
// backward analysis.
func (m *Machine) RunTrace(opts TraceOptions) (*TraceResult, error) {
	t := &trace.InstTrace{}
	sr, err := m.RunTraceStream(opts, t)
	if err != nil {
		return nil, err
	}
	t.BuildWriteIndex()
	return &TraceResult{
		Trace:       t,
		Dump:        sr.Dump,
		FilterCalls: sr.FilterCalls,
		Steps:       sr.Steps,
	}, nil
}

// instrumentedRun is the state of one instrumented run: coverage, the
// difference's profile and the traced extents, all gathered in one step
// loop.
type instrumentedRun struct {
	m        *Machine
	name     string // the run's name in a step-limit error
	maxSteps uint64

	// Per instruction index: block leaders, blocks covered so far, blocks
	// to profile (nil: none) and trace extent entries (nil: none).
	leader, covered, profile, entry []bool

	callTargets map[uint32]map[uint32]bool
	memTrace    []trace.MemAccess

	sink          trace.Sink
	maxTraceInsts int
	extents       map[uint32]int
	dump          *trace.MemDump
	writtenPages  map[uint64]bool
	// lastRead and lastWritten are the pages of the latest traced read and
	// write, already in the dump and in writtenPages.
	lastRead, lastWritten uint64
	insts                 int
	traceErr              error
}

func (m *Machine) newRun(name string, maxSteps uint64) *instrumentedRun {
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	leaders := m.Prog.Leaders()
	r := &instrumentedRun{
		m:            m,
		name:         name,
		maxSteps:     maxSteps,
		leader:       make([]bool, len(m.Prog.Insts)),
		covered:      make([]bool, len(m.Prog.Insts)),
		extents:      make(map[uint32]int),
		dump:         trace.NewMemDump(pageSize),
		writtenPages: make(map[uint64]bool),
		lastRead:     ^uint64(0),
		lastWritten:  ^uint64(0),
	}
	for i := range m.Prog.Insts {
		r.leader[i] = leaders[m.Prog.Insts[i].Addr]
	}
	return r
}

// run steps the machine until it halts.  A trace error stops the capture;
// when continueAfterTraceErr is set the run goes on (coverage still needs
// the rest of the execution) and the error is left in r.traceErr,
// otherwise it is returned at once.
func (r *instrumentedRun) run(continueAfterTraceErr bool) error {
	m := r.m
	rec := &stepRecord{}
	tracing, entryDepth := false, 0
	inDiff := false

	for !m.halted {
		if m.steps >= r.maxSteps {
			return fmt.Errorf("vm: %s exceeded %d steps during %s", m.Prog.Name, r.maxSteps, r.name)
		}
		idx, err := m.fetch()
		if err != nil {
			return err
		}
		if r.leader[idx] {
			r.covered[idx] = true
			inDiff = r.profile != nil && r.profile[idx]
		}
		if !tracing && r.entry != nil && r.entry[idx] && r.traceErr == nil {
			tracing, entryDepth = true, m.callDepth
			r.extents[m.eip]++
		}
		in := &m.Prog.Insts[idx]
		if inDiff && in.Op == isa.CALL && in.Sym == "" {
			tgts := r.callTargets[in.Addr]
			if tgts == nil {
				tgts = make(map[uint32]bool)
				r.callTargets[in.Addr] = tgts
			}
			tgts[in.Target] = true
		}

		var sr *stepRecord
		if tracing || inDiff {
			rec.reset()
			rec.accessesOnly = !tracing
			sr = rec
		}
		if err := m.exec(idx, sr); err != nil {
			return err
		}
		if inDiff {
			r.memTrace = append(r.memTrace, rec.accesses...)
		}
		if !tracing {
			continue
		}
		if err := r.emit(rec); err != nil {
			if !continueAfterTraceErr {
				return err
			}
			r.traceErr, tracing = err, false
			continue
		}
		if m.callDepth < entryDepth {
			tracing = false
			r.dumpWritten()
		}
	}
	r.dumpWritten()
	return nil
}

// emit streams one traced step to the sink and updates the dump: read
// pages are captured eagerly (before any later write can disturb them),
// written pages at extent exit.
func (r *instrumentedRun) emit(rec *stepRecord) error {
	di := trace.DynInst{
		Seq:     r.insts,
		Addr:    rec.instAddr,
		Op:      rec.op,
		Width:   rec.width,
		Taken:   rec.taken,
		Sym:     rec.sym,
		MemAddr: rec.memAddr,
		HasMem:  rec.hasMem,
	}
	// The record's buffers are reused for the next instruction; the Sink
	// contract has the sink copy whatever it keeps.
	if len(rec.effects) > 0 {
		di.Effects = rec.effects
	}
	if len(rec.addrRefs) > 0 {
		di.AddrRefs = rec.addrRefs
	}
	if err := r.sink.Emit(di); err != nil {
		return err
	}
	r.insts++
	if r.maxTraceInsts > 0 && r.insts > r.maxTraceInsts {
		return fmt.Errorf("vm: trace exceeded %d instructions", r.maxTraceInsts)
	}
	if r.insts == fpTruncateAfter && faultpoint.Enabled(fpTruncateTrace) {
		return fmt.Errorf("vm: trace capture aborted after %d records (injected fault %s)", r.insts, fpTruncateTrace)
	}
	for _, acc := range rec.accesses {
		page := acc.Addr &^ uint64(pageSize-1)
		if acc.Write {
			if page != r.lastWritten {
				r.writtenPages[page] = true
				r.lastWritten = page
			}
		} else if page != r.lastRead {
			if _, ok := r.dump.Pages[page]; !ok {
				r.dump.Pages[page] = r.m.Mem.PageBytes(uint32(page))
			}
			r.lastRead = page
		}
	}
	return nil
}

// dumpWritten snapshots every page the traced extents wrote.
func (r *instrumentedRun) dumpWritten() {
	for page := range r.writtenPages {
		r.dump.Pages[page] = r.m.Mem.PageBytes(uint32(page))
	}
}

// Run executes the program from its current state until it halts, without
// instrumentation.  It is used by harnesses that only need the program's
// output (for example to validate lifted kernels against the original).
func (m *Machine) Run(maxSteps uint64) error {
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	for !m.halted {
		if m.steps >= maxSteps {
			return fmt.Errorf("vm: %s exceeded %d steps", m.Prog.Name, maxSteps)
		}
		if err := m.step(nil); err != nil {
			return err
		}
	}
	return nil
}
