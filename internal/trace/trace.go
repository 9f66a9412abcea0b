// Package trace defines the dynamically captured artifacts the Helium
// analyses consume: basic-block coverage records, memory access traces,
// full dynamic instruction traces and page-granularity memory dumps.
//
// These mirror the data the original system collects with DynamoRIO clients
// (paper sections 3.1 and 4.1).  All analyses downstream of the VM operate
// purely on these records; nothing else about the emulator leaks out.
package trace

import (
	"fmt"
	"slices"
	"sort"

	"helium/internal/isa"
)

// Space identifies the kind of location a Ref denotes.  Helium maps
// registers into a unified address space so that partial register reads and
// writes can be handled with the same byte-granularity overlap logic as
// memory (paper section 4.5); Addr below is always a unified address.
type Space uint8

// Location spaces.
const (
	SpaceNone  Space = iota
	SpaceMem         // an absolute memory address
	SpaceReg         // a register byte range mapped into the unified space
	SpaceFlags       // the flags register
	SpaceImm         // an immediate constant (no location)
)

// Unified address space layout.  Memory occupies the low 2^32 addresses;
// registers and flags are mapped above it.
const (
	// RegSpaceBase is the unified address of the first register byte.
	RegSpaceBase uint64 = 1 << 32
	// FlagsAddr is the unified address of the flags register.
	FlagsAddr uint64 = RegSpaceBase + uint64(isa.NumRegs)*8
)

// RegAddr returns the unified address of the first byte of register r,
// accounting for sub-register views (AH maps one byte above EAX).
func RegAddr(r isa.Reg) uint64 {
	return RegSpaceBase + uint64(r.Full())*8 + uint64(r.Offset())
}

// IsRegAddr reports whether a unified address refers to register space.
func IsRegAddr(addr uint64) bool { return addr >= RegSpaceBase }

// Ref is a single resolved operand reference in a dynamic instruction: a
// byte range in the unified address space together with the value observed
// there, or an immediate.
type Ref struct {
	// Addr is the unified address of the first byte (unused for SpaceImm).
	Addr uint64
	// Val is the integer value read or written (zero-extended), or the
	// immediate value for SpaceImm.
	Val uint64
	// FVal is the floating point value for float references.
	FVal float64
	// Space is the kind of location.  (The one-byte fields sit last so a
	// Ref packs into 32 bytes: traces hold millions of them.)
	Space Space
	// Width is the width of the reference in bytes.
	Width uint8
	// Float marks references to floating point data.
	Float bool
}

// Overlaps reports whether the byte ranges of r and other intersect.
func (r Ref) Overlaps(other Ref) bool {
	if r.Space == SpaceImm || other.Space == SpaceImm {
		return false
	}
	return r.Addr < other.Addr+uint64(other.Width) && other.Addr < r.Addr+uint64(r.Width)
}

// Contains reports whether r fully contains other's byte range.
func (r Ref) Contains(other Ref) bool {
	if r.Space == SpaceImm || other.Space == SpaceImm {
		return false
	}
	return r.Addr <= other.Addr && other.Addr+uint64(other.Width) <= r.Addr+uint64(r.Width)
}

// String renders the reference for debugging.
func (r Ref) String() string {
	switch r.Space {
	case SpaceImm:
		return fmt.Sprintf("imm:%d", int64(r.Val))
	case SpaceFlags:
		return "flags"
	case SpaceReg:
		return fmt.Sprintf("reg@%#x/%d=%d", r.Addr, r.Width, r.Val)
	case SpaceMem:
		return fmt.Sprintf("mem@%#x/%d=%d", r.Addr, r.Width, r.Val)
	}
	return "none"
}

// MemAccess is one entry of the lightweight memory trace collected during
// code localization (paper section 3.1): the static instruction address,
// the absolute address touched, the access width and the direction.
type MemAccess struct {
	Addr     uint64
	InstAddr uint32
	Width    uint8
	Write    bool
}

// ExprOp is the semantic operation of a single effect.  The backward
// analysis turns effects directly into expression tree nodes, so ExprOp is
// deliberately at the level of the lifted expression language rather than
// the ISA: instruction selection details (two-address forms, lea tricks,
// partial registers) are already erased by the tracer.
type ExprOp uint8

// Effect operations.
const (
	OpNone ExprOp = iota
	OpIdentity
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpMulHi // high half of a widening unsigned multiply (the EDX result of MUL)
	OpAnd
	OpOr
	OpXor
	OpNot
	OpNeg
	OpShl
	OpShr // logical shift right
	OpSar // arithmetic shift right
	OpZExt
	OpSExt
	OpLea  // srcs = [base, index, scale, disp]; expands to base+index*scale+disp
	OpCmp  // flag producer: srcs = [a, b]
	OpTest // flag producer: srcs = [a, b]
	OpBranch
	OpCall    // external call; Sym on the DynInst names the function
	OpIntToFP // integer to floating point conversion
	OpFPToInt // floating point to integer conversion (round)
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpSelectSet // setcc: srcs = [flags]
)

var exprOpNames = map[ExprOp]string{
	OpNone: "none", OpIdentity: "id", OpAdd: "+", OpSub: "-", OpMul: "*",
	OpDiv: "/", OpMod: "%", OpMulHi: "*hi", OpAnd: "&", OpOr: "|", OpXor: "^", OpNot: "~",
	OpNeg: "neg", OpShl: "<<", OpShr: ">>", OpSar: ">>a", OpZExt: "zext",
	OpSExt: "sext", OpLea: "lea", OpCmp: "cmp", OpTest: "test",
	OpBranch: "branch", OpCall: "call", OpIntToFP: "i2f", OpFPToInt: "f2i",
	OpFAdd: "+f", OpFSub: "-f", OpFMul: "*f", OpFDiv: "/f", OpSelectSet: "setcc",
}

// String returns a compact spelling of the operation.
func (op ExprOp) String() string {
	if s, ok := exprOpNames[op]; ok {
		return s
	}
	return fmt.Sprintf("exprop(%d)", uint8(op))
}

// Effect is one architectural assignment performed by a dynamic
// instruction: Dst receives Op applied to Srcs.  An instruction may have
// several effects (a result register, the flags register, a stack pointer
// update); keeping them separate lets the analyses reason about each
// assignment independently of x86 instruction packaging.
type Effect struct {
	Dst  Ref
	Op   ExprOp
	Srcs []Ref
}

// DynInst is one entry of the detailed dynamic instruction trace collected
// during expression extraction (paper section 4.1).
type DynInst struct {
	// Seq is the position of the record in the trace.
	Seq int
	// Effects are the architectural assignments the instruction performed.
	Effects []Effect
	// AddrRefs are the register references used to form memory operand
	// addresses (base and index registers with their observed values).  The
	// forward analysis uses them to flag indirect buffer accesses and the
	// backward analysis uses them to expand address expressions for table
	// lookups (paper sections 4.6 and 4.7).
	AddrRefs []Ref
	// MemAddr is the absolute address of the memory operand, if any.
	MemAddr uint64
	// Sym is the imported symbol for external calls.
	Sym string
	// Addr is the static instruction address.
	Addr uint32
	// Op is the ISA operation executed.
	Op isa.Opcode
	// Width is the operation width in bytes.
	Width uint8
	// HasMem reports whether the instruction had a memory operand.
	HasMem bool
	// Taken records the outcome of conditional jumps.
	Taken bool
}

// Sink consumes dynamic instruction records as the tracer produces them.
// Streaming consumers (on-line analyses, filters, serializers) implement
// Sink directly; batch consumers collect into an InstTrace, which is itself
// a Sink.  Emit must not retain di or its slices past the call unless it
// copies them.
type Sink interface {
	Emit(di DynInst) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(di DynInst) error

// Emit calls f(di).
func (f SinkFunc) Emit(di DynInst) error { return f(di) }

// InstTrace is a captured instruction trace together with the write index
// needed by the backward analysis.
type InstTrace struct {
	// insts holds the records in chunks of instChunk: a full chunk is
	// kept and the next one started, so growing the trace never copies a
	// record.  The records' Effects, Srcs and AddrRefs point into two more
	// slabs, effects and refs, which grow the same way.  Reset rewinds all
	// three, so a reused trace refills the chunks it already has.
	insts   slab[DynInst]
	n       int
	effects slab[Effect]
	refs    slab[Ref]

	// writes is the write index, nil until built and after every Emit.
	// widx holds its storage, kept across rebuilds and Reset.
	writes *writeIndex
	widx   writeIndex
}

// Slab chunk sizes, in elements.  A record with more effects or refs than
// a chunk holds gets a chunk of its own size.
const (
	instShift   = 10
	instChunk   = 1 << instShift
	effectChunk = 2048
	refChunk    = 4096
)

// slab hands out runs of elements from a list of chunks, never moving an
// element once handed out.
type slab[T any] struct {
	chunks [][]T
	cur    int // chunks[cur-1] is being filled; 0 before the first take
}

// take returns n consecutive elements of the current chunk, moving on to
// the next chunk (kept from before a reset, or fresh with room for at
// least size elements) when the current one is full.  The elements may
// hold values from before a reset; the caller overwrites them.
func (s *slab[T]) take(n, size int) []T {
	if s.cur > 0 {
		c := s.chunks[s.cur-1]
		if l := len(c); cap(c)-l >= n {
			s.chunks[s.cur-1] = c[:l+n]
			return c[l : l+n : l+n]
		}
	}
	for s.cur < len(s.chunks) {
		c := s.chunks[s.cur][:0]
		s.chunks[s.cur] = c
		s.cur++
		if cap(c) >= n {
			s.chunks[s.cur-1] = c[:n]
			return c[:n:n]
		}
	}
	c := make([]T, n, max(size, n))
	s.chunks = append(s.chunks, c)
	s.cur++
	return c[:n:n]
}

// reset rewinds the slab to its first chunk, keeping every chunk.
func (s *slab[T]) reset() { s.cur = 0 }

// trim drops the chunks past the current one, which the content since
// the last reset did not need.
func (s *slab[T]) trim() {
	clear(s.chunks[s.cur:])
	s.chunks = s.chunks[:s.cur]
}

// Len returns the number of records in the trace.
func (t *InstTrace) Len() int { return t.n }

// At returns the record at trace position i (0 <= i < Len()).  Records
// stay where they are as the trace grows, so the pointer remains valid
// until the next Reset.
func (t *InstTrace) At(i int) *DynInst {
	if uint(i) >= uint(t.n) {
		panic(fmt.Sprintf("trace: record %d out of range [0,%d)", i, t.n))
	}
	return &t.insts.chunks[i>>instShift][i&(instChunk-1)]
}

// Reset empties the trace for another capture, keeping its record,
// effect and ref chunks and its write index storage.  Records, slices and
// pointers handed out before the Reset become invalid.
func (t *InstTrace) Reset() {
	t.insts.reset()
	t.effects.reset()
	t.refs.reset()
	t.n = 0
	t.writes = nil
}

// Emit appends a copy of the record, making InstTrace the batch-collecting
// Sink: the record's Effects (with their Srcs) and AddrRefs are copied into
// the trace's own slabs, so the producer may reuse its buffers.  The write
// index is invalidated; call BuildWriteIndex again after the trace is
// complete.
func (t *InstTrace) Emit(di DynInst) error {
	di.Effects = t.copyEffects(di.Effects)
	di.AddrRefs = t.copyRefs(di.AddrRefs)
	t.insts.take(1, instChunk)[0] = di
	t.n++
	t.writes = nil
	return nil
}

// copyEffects copies src, and every effect's Srcs, into the slabs.
func (t *InstTrace) copyEffects(src []Effect) []Effect {
	if len(src) == 0 {
		return src[:0:0]
	}
	dst := t.effects.take(len(src), effectChunk)
	for i, ef := range src {
		if i > 0 && sameSlice(ef.Srcs, src[i-1].Srcs) {
			// Effects sharing one operand list keep sharing it.
			ef.Srcs = dst[i-1].Srcs
		} else {
			ef.Srcs = t.copyRefs(ef.Srcs)
		}
		dst[i] = ef
	}
	return dst
}

// sameSlice reports whether a and b are the same non-empty slice.
func sameSlice(a, b []Ref) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// copyRefs copies src into the ref slab.
func (t *InstTrace) copyRefs(src []Ref) []Ref {
	if len(src) == 0 {
		return src[:0:0]
	}
	dst := t.refs.take(len(src), refChunk)
	copy(dst, src)
	return dst
}

// writeIndex lists, for every written byte of the unified address space,
// the trace sequence numbers that wrote it, in trace order.  All lists
// share one array: slot s's writers are seqs[rows[s].lo:rows[s].hi].
// Register and flags bytes, which nearly every instruction writes, have
// fixed slots (their offset from RegSpaceBase); memory bytes get slots
// numbered on first sight, so the bytes of one store get consecutive
// slots.  A slot whose writers are exactly the previous slot's (the bytes
// of a register or store always written together) shares its row, which
// lets LastWriteBefore search a multi-byte range once.
type writeIndex struct {
	// pages maps a memory page number to its bytes' slots plus one (zero:
	// never written); nmem counts the memory slots numbered so far.
	pages map[uint64]*slotPage
	nmem  int32
	rows  []span
	seqs  []int32

	// spare holds cleared pages for the next build.
	spare []*slotPage
}

// slotPage holds the slots (plus one) of one memory page's bytes.
type slotPage [1 << slotPageShift]int32

const slotPageShift = 12

// span is a [lo, hi) range of writeIndex.seqs.
type span struct{ lo, hi int32 }

// regSlots covers every register and flags byte: a Reg is one byte wide,
// so RegAddr stays below RegSpaceBase + 256*8 and flags sit at the end.
const regSlots = 256*8 + 8

// slot returns the slot of a byte address, or -1 when the byte was never
// written.
func (w *writeIndex) slot(a uint64) int32 {
	if a-RegSpaceBase < regSlots {
		return int32(a - RegSpaceBase)
	}
	if p := w.pages[a>>slotPageShift]; p != nil {
		return p[a&(1<<slotPageShift-1)] - 1
	}
	return -1
}

// number returns the slot of a written byte address, numbering memory
// bytes on first sight.  last caches the most recent page.
func (w *writeIndex) number(a uint64, last *slotCursor) int32 {
	if a-RegSpaceBase < regSlots {
		return int32(a - RegSpaceBase)
	}
	pn := a >> slotPageShift
	if last.page == nil || last.pn != pn {
		p := w.pages[pn]
		if p == nil {
			if n := len(w.spare); n > 0 {
				p, w.spare = w.spare[n-1], w.spare[:n-1]
			} else {
				p = new(slotPage)
			}
			w.pages[pn] = p
		}
		last.pn, last.page = pn, p
	}
	s := &last.page[a&(1<<slotPageShift-1)]
	if *s == 0 {
		w.nmem++
		*s = regSlots + w.nmem
	}
	return *s - 1
}

// slotCursor caches the page number lookup of writeIndex.number.
type slotCursor struct {
	pn   uint64
	page *slotPage
}

// forEachWrite calls fn for every effect of the trace that writes a
// location, in trace order.
func (t *InstTrace) forEachWrite(fn func(d *Ref, seq int32)) {
	for _, chunk := range t.insts.chunks[:t.insts.cur] {
		for i := range chunk {
			di := &chunk[i]
			for j := range di.Effects {
				if d := &di.Effects[j].Dst; d.Space != SpaceImm && d.Space != SpaceNone {
					fn(d, int32(di.Seq))
				}
			}
		}
	}
}

// BuildWriteIndex constructs the per-byte write index used by
// LastWriteBefore.  It must be called once after the trace is complete.
// It reuses the storage of the trace's previous index, and drops the
// chunks kept from before a Reset that the complete trace did not need.
func (t *InstTrace) BuildWriteIndex() {
	t.insts.trim()
	t.effects.trim()
	t.refs.trim()
	w := &t.widx
	if w.pages == nil {
		w.pages = make(map[uint64]*slotPage)
	}
	for pn, p := range w.pages {
		clear(p[:])
		w.spare = append(w.spare, p)
		delete(w.pages, pn)
	}
	w.nmem = 0
	// Count the writes per slot in the rows' hi fields, lay the rows out
	// by prefix sums, then fill them in trace order.
	w.rows = resized(w.rows, regSlots)
	clear(w.rows)
	var cur slotCursor
	t.forEachWrite(func(d *Ref, _ int32) {
		for b := uint64(0); b < uint64(d.Width); b++ {
			s := w.number(d.Addr+b, &cur)
			if int(s) == len(w.rows) {
				w.rows = append(w.rows, span{})
			}
			w.rows[s].hi++
		}
	})
	total := int32(0)
	for s, r := range w.rows {
		w.rows[s] = span{total, total}
		total += r.hi
	}
	w.seqs = resized(w.seqs, int(total))
	t.forEachWrite(func(d *Ref, seq int32) {
		for b := uint64(0); b < uint64(d.Width); b++ {
			r := &w.rows[w.number(d.Addr+b, &cur)]
			w.seqs[r.hi] = seq
			r.hi++
		}
	})
	for s := 1; s < len(w.rows); s++ {
		if prev, cur := w.rows[s-1], w.rows[s]; slices.Equal(w.seqs[prev.lo:prev.hi], w.seqs[cur.lo:cur.hi]) {
			w.rows[s] = prev
		}
	}
	t.writes = w
}

// resized returns s with length n, reusing its array when it is large
// enough.  The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// EnsureWriteIndex builds the write index only if it has not been built
// since the last Emit.  Call it before sharing the trace across
// goroutines: the index itself is read-only once built, but the lazy
// first build is not.
func (t *InstTrace) EnsureWriteIndex() {
	if t.writes == nil {
		t.BuildWriteIndex()
	}
}

// row returns the range of seqs listing the writers of one byte (empty
// when none wrote it).
func (w *writeIndex) row(a uint64) span {
	s := w.slot(a)
	if s < 0 || int(s) >= len(w.rows) {
		return span{}
	}
	return w.rows[s]
}

// LastWriteBefore returns the sequence number of the most recent instruction
// before seq that wrote any byte in [addr, addr+width), and whether one
// exists.  When several bytes were last written by different instructions
// the latest of them is returned; the backward analysis then discovers the
// partial overlap while matching widths.
func (t *InstTrace) LastWriteBefore(seq int, addr uint64, width uint8) (int, bool) {
	t.EnsureWriteIndex()
	best := -1
	prev := span{-1, -1}
	for b := uint64(0); b < uint64(width); b++ {
		r := t.writes.row(addr + b)
		if r == prev {
			continue // same writers as the previous byte
		}
		prev = r
		ws := t.writes.seqs[r.lo:r.hi]
		// Binary search for the last write strictly before seq.
		lo, hi := 0, len(ws)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if int(ws[mid]) < seq {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo > 0 && int(ws[lo-1]) > best {
			best = int(ws[lo-1])
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// WritesTo returns all trace sequence numbers that wrote the exact byte
// address, in order, as a fresh slice (nil when none did).
func (t *InstTrace) WritesTo(addr uint64) []int {
	t.EnsureWriteIndex()
	r := t.writes.row(addr)
	ws := t.writes.seqs[r.lo:r.hi]
	if len(ws) == 0 {
		return nil
	}
	out := make([]int, len(ws))
	for i, s := range ws {
		out[i] = int(s)
	}
	return out
}

// MemDump is a page-granularity dump of the memory touched by candidate
// instructions.  Read pages are captured eagerly, written pages at filter
// function exit (paper section 4.1).
type MemDump struct {
	// Pages maps page-aligned addresses to page contents.
	Pages map[uint64][]byte
	// PageSize is the dump granularity in bytes.
	PageSize uint64
}

// NewMemDump returns an empty dump with the given page size.
func NewMemDump(pageSize uint64) *MemDump {
	return &MemDump{Pages: make(map[uint64][]byte), PageSize: pageSize}
}

// Size returns the total number of bytes captured.
func (d *MemDump) Size() int {
	return len(d.Pages) * int(d.PageSize)
}

// Byte returns the byte at addr and whether the page containing it was
// dumped.
func (d *MemDump) Byte(addr uint64) (byte, bool) {
	page := addr &^ (d.PageSize - 1)
	p, ok := d.Pages[page]
	if !ok {
		return 0, false
	}
	return p[addr-page], true
}

// Bytes copies n bytes starting at addr out of the dump.  The second result
// is false if any byte falls outside the dumped pages.
func (d *MemDump) Bytes(addr uint64, n int) ([]byte, bool) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		b, ok := d.Byte(addr + uint64(i))
		if !ok {
			return nil, false
		}
		out[i] = b
	}
	return out, true
}

// Find searches the dump for the byte pattern and returns the addresses at
// which it occurs, in increasing order.  Helium uses this to locate known
// input and output data when inferring buffer dimensions (paper section
// 4.3).
func (d *MemDump) Find(pattern []byte) []uint64 {
	if len(pattern) == 0 {
		return nil
	}
	pages := make([]uint64, 0, len(d.Pages))
	for p := range d.Pages {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	var hits []uint64
	for _, page := range pages {
		data := d.Pages[page]
		for off := 0; off < len(data); off++ {
			addr := page + uint64(off)
			ok := true
			for i := 0; i < len(pattern); i++ {
				b, have := d.Byte(addr + uint64(i))
				if !have || b != pattern[i] {
					ok = false
					break
				}
			}
			if ok {
				hits = append(hits, addr)
			}
		}
	}
	return hits
}
