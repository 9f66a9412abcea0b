// Compiled execution of lifted kernels.  A Program is an expression tree
// lowered to a flat SSA-style register program: common subexpressions are
// computed once, constants live in a pooled register-file prefix, integer
// sums collapse into a single multi-tap instruction with the constant bias
// folded in, and constant divisions strength-reduce to multiply-high
// sequences.  Whole rows execute vectorized — every instruction processes
// one output row of samples before the next dispatches — with input taps
// resolved by flat-index addressing against the concrete pixel backing: no
// interface dispatch, no allocation and almost no interpretive overhead on
// the per-sample path.  This is the reproduction's stand-in for the paper's
// regenerated Halide code: the lifted stencil as an executable program
// rather than a walked tree.
package ir

import (
	"fmt"
	"math"
	"math/bits"

	"helium/internal/liftedkernels"
)

// Internal opcodes the lowering introduces.  They live past the public Op
// range and never appear in expression trees.
const (
	// opSumTaps is an n-ary integer sum: constant bias + input taps +
	// register operands, masked once at the end exactly like the
	// interpreter's variadic OpAdd.
	opSumTaps Op = 200 + iota
	opMulN
	opAndN
	opOrN
	opXorN
	opMinN
	opMaxN
	// opDivShift / opDivMagic are unsigned division by a nonzero
	// constant: a power of two becomes a shift, anything else an exact
	// multiply-high (the divisor is < 2^32 and the masked numerator fits
	// 32 bits, so the magic form never misrounds).
	opDivShift
	opDivMagic
	opModShift
	opModMagic
)

func init() {
	for op, name := range map[Op]string{
		opSumTaps: "sumtaps", opMulN: "mulN", opAndN: "andN", opOrN: "orN",
		opXorN: "xorN", opMinN: "minN", opMaxN: "maxN",
		opDivShift: "div>>", opDivMagic: "div*", opModShift: "mod&", opModMagic: "mod*",
	} {
		opNames[op] = name
	}
}

// tap is one input sample read at a constant offset from the output
// coordinate.
type tap struct {
	dx, dy, dc int32
}

// pinst is one flat instruction.  Operand registers a, b, c (and args for
// n-ary forms) index the register file; dst is always past the constant
// pool prefix.
type pinst struct {
	op              Op
	width, srcWidth uint8
	// mask is the precomputed result mask (the srcWidth mask for OpZExt);
	// sh is the precomputed sign-extension shift for the ops that compare
	// or extend signed values.
	mask       uint64
	sh         uint8
	a, b, c    int32
	args       []int32
	dst        int32
	val        int64 // extract byte offset / shift amount / sum bias
	magic      uint64
	dcon       uint64 // constant divisor (for the mod reconstructions)
	taps       []tap
	table      []byte
	elem       int
	fn         func(float64) float64
	sym        string // OpCall symbol, kept for the source backend
	fl         bool   // OpSelect: arms are float-domain
	dx, dy, dc int32  // OpLoad tap offsets
	// dead marks a pure instruction whose value is never consumed (a
	// leftover of domain coercion): executors skip it, and the width pass
	// ignores it when narrowing lanes.  Fault-capable instructions are
	// never flagged — their runtime checks are observable behavior.
	dead bool
}

// Program is one channel's expression tree in executable form.
type Program struct {
	// consts holds the pooled constants (floats as IEEE-754 bits);
	// registers [0, len(consts)) are loaded from it once and are never
	// written by instructions.
	consts []uint64
	insts  []pinst
	// numRegs is the register file size: len(consts) plus one register
	// per instruction (SSA form: every instruction defines a fresh
	// register).
	numRegs int
	// root is the register holding the final value; rootFloat marks a
	// floating point result, returned as its bit pattern like Expr.Eval.
	root      int32
	rootFloat bool
	// width holds the width-inference results (per-register bounds and
	// the proven lane width), stamped by CompileExpr.
	width widthInfo
}

// NumInsts returns the instruction count (a proxy for per-sample work).
func (p *Program) NumInsts() int { return len(p.insts) }

// NumConsts returns the size of the pooled constant prefix.
func (p *Program) NumConsts() int { return len(p.consts) }

// NumLoads returns how many input taps the program performs per sample,
// counting both standalone loads and taps fused into sums; after CSE this
// is the number of *distinct* taps outside sums plus the taps of each sum.
func (p *Program) NumLoads() int {
	n := 0
	for i := range p.insts {
		switch p.insts[i].op {
		case OpLoad:
			n++
		case opSumTaps:
			n += len(p.insts[i].taps)
		}
	}
	return n
}

// newRegs allocates a scalar register file with the constant pool loaded.
func (p *Program) newRegs() []uint64 {
	regs := make([]uint64, p.numRegs)
	copy(regs, p.consts)
	return regs
}

// maskFor replicates maskW as a precomputed constant: widths 1, 2 and 4
// mask, every other width passes the value through.
func maskFor(width int) uint64 {
	switch width {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	case 4:
		return 0xffffffff
	}
	return ^uint64(0)
}

// shFor replicates signExt as a shift pair: int64(v<<sh)>>sh equals
// signExt(v, width) for widths 1, 2 and 4, and the identity int64(v)
// (shift 0) for every other width.
func shFor(width int) uint8 {
	switch width {
	case 1:
		return 56
	case 2:
		return 48
	case 4:
		return 32
	}
	return 0
}

// sx sign-extends with a precomputed shift.
func sx(v uint64, sh uint8) int64 { return int64(v<<sh) >> sh }

// binding resolves input taps for one source.  A flat backing (src nil) is
// addressed directly through pix; any other source is sampled through the
// interface, which only the scalar path supports.
type binding struct {
	pix                   []byte
	base, stride, pixStep int
	chanStep              int
	src                   Source
	// xstep is the per-output-sample input advance in pixels along x: 1
	// for classic stencils, the index map's numerator for affine kernels
	// with denominator 1 (row execution stays vectorized, just strided).
	xstep int
	// tbl is the bound stage-input table OpTableIn instructions read.
	tbl []byte
}

// bindSource binds a flat-backed source (see ImageOf) for direct
// addressing; any other Source is bound generically.
func bindSource(src Source) binding {
	if ts, ok := src.(TableSource); ok {
		bd := bindSource(ts.Src)
		bd.tbl = ts.Tbl
		return bd
	}
	img, err := ImageOf(src)
	if err != nil {
		return binding{src: src, xstep: 1}
	}
	return binding{pix: img.Pix, base: img.Base, stride: img.Stride, pixStep: img.PixStep, chanStep: img.ChanStep, xstep: 1}
}

// TableSource pairs a pixel source with a bound stage-input table for
// kernels whose programs contain OpTableIn instructions.  Sampling passes
// through to the underlying source.
type TableSource struct {
	Src Source
	Tbl []byte
}

// Sample delegates to the wrapped pixel source.
func (s TableSource) Sample(x, y, c int) uint8 { return s.Src.Sample(x, y, c) }

// flatOff is the flat-index delta of a tap under bd's geometry.
func (bd *binding) flatOff(dx, dy, dc int32) int {
	return int(dy)*bd.stride + int(dx)*bd.pixStep + int(dc)*bd.chanStep
}

// tapOffsets holds a program's input taps resolved to flat-index deltas
// under one binding's geometry (Stride, PixStep, ChanStep).
type tapOffsets struct {
	offs []int   // flat offset per OpLoad instruction
	sums [][]int // flat offsets per opSumTaps instruction
}

// set resolves every tap of p against bd's geometry, reusing the slices
// of an earlier resolution.
func (t *tapOffsets) set(p *Program, bd *binding) {
	if t.offs == nil {
		t.offs = make([]int, len(p.insts))
		t.sums = make([][]int, len(p.insts))
	}
	for i := range p.insts {
		in := &p.insts[i]
		switch in.op {
		case OpLoad:
			t.offs[i] = bd.flatOff(in.dx, in.dy, in.dc)
		case opSumTaps:
			if t.sums[i] == nil {
				t.sums[i] = make([]int, len(in.taps))
			}
			for j, tp := range in.taps {
				t.sums[i][j] = bd.flatOff(tp.dx, tp.dy, tp.dc)
			}
		}
	}
}

// progState is the reusable scalar execution state of one program: tap
// offsets for the bound geometry and the scalar register file.
type progState struct {
	tapOffsets
	regs []uint64
}

func (p *Program) newState(bd *binding) *progState {
	st := &progState{regs: p.newRegs()}
	st.set(p, bd)
	return st
}

// errDivZero and friends match the interpreter's failure modes.
func errDivZero() error { return fmt.Errorf("ir: division by zero") }
func errModZero() error { return fmt.Errorf("ir: modulo by zero") }
func errTable(idx int64, table []byte, elem int) error {
	return fmt.Errorf("ir: table index %d out of range (%d elements)", idx, len(table)/elem)
}
func errLoad(x, y, c int) error {
	return fmt.Errorf("ir: compiled load at (%d,%d,%d) outside the pixel backing", x, y, c)
}
func errNotLaneExecutable(op Op) error {
	return fmt.Errorf("ir: op %v reached the lane executor", op)
}

// run executes the program for one output coordinate (x, y, c) in scalar
// form — the reference path behind Run and EvalAt, and the per-sample path
// of fractional x-maps.  Row rendering goes through the row executors.
func (p *Program) run(bd *binding, st *progState, x, y, c int) (uint64, error) {
	regs := st.regs
	pos := 0
	if bd.src == nil {
		pos = bd.base + y*bd.stride + x*bd.pixStep + c*bd.chanStep
	}
	for i := range p.insts {
		in := &p.insts[i]
		if in.dead {
			continue
		}
		switch in.op {
		case OpLoad:
			if bd.src == nil {
				idx := pos + st.offs[i]
				if uint(idx) >= uint(len(bd.pix)) {
					return 0, errLoad(x+int(in.dx), y+int(in.dy), c+int(in.dc))
				}
				regs[in.dst] = uint64(bd.pix[idx])
			} else {
				regs[in.dst] = uint64(bd.src.Sample(x+int(in.dx), y+int(in.dy), c+int(in.dc)))
			}
		case opSumTaps:
			s := uint64(in.val)
			if bd.src == nil {
				for _, off := range st.sums[i] {
					idx := pos + off
					if uint(idx) >= uint(len(bd.pix)) {
						return 0, errLoad(x, y, c)
					}
					s += uint64(bd.pix[idx])
				}
			} else {
				for _, t := range in.taps {
					s += uint64(bd.src.Sample(x+int(t.dx), y+int(t.dy), c+int(t.dc)))
				}
			}
			for _, r := range in.args {
				s += regs[r]
			}
			regs[in.dst] = s & in.mask
		case opMulN:
			s := uint64(1)
			for _, r := range in.args {
				s *= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opAndN:
			s := ^uint64(0)
			for _, r := range in.args {
				s &= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opOrN:
			s := uint64(0)
			for _, r := range in.args {
				s |= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opXorN:
			s := uint64(0)
			for _, r := range in.args {
				s ^= regs[r]
			}
			regs[in.dst] = s & in.mask
		case opMinN:
			s := sx(regs[in.args[0]], in.sh)
			for _, r := range in.args[1:] {
				if v := sx(regs[r], in.sh); v < s {
					s = v
				}
			}
			regs[in.dst] = uint64(s) & in.mask
		case opMaxN:
			s := sx(regs[in.args[0]], in.sh)
			for _, r := range in.args[1:] {
				if v := sx(regs[r], in.sh); v > s {
					s = v
				}
			}
			regs[in.dst] = uint64(s) & in.mask
		case OpSub:
			regs[in.dst] = (regs[in.a] - regs[in.b]) & in.mask
		case OpMulHi:
			regs[in.dst] = ((regs[in.a] & 0xffffffff) * (regs[in.b] & 0xffffffff) >> 32) & in.mask
		case OpDiv:
			d := regs[in.b] & in.mask
			if d == 0 {
				return 0, errDivZero()
			}
			regs[in.dst] = (regs[in.a] & in.mask) / d
		case OpMod:
			d := regs[in.b] & in.mask
			if d == 0 {
				return 0, errModZero()
			}
			regs[in.dst] = (regs[in.a] & in.mask) % d
		case opDivShift:
			regs[in.dst] = (regs[in.a] & in.mask) >> uint(in.val)
		case opDivMagic:
			regs[in.dst] = mulHi64(regs[in.a]&in.mask, in.magic)
		case opModShift:
			regs[in.dst] = regs[in.a] & in.mask & (in.dcon - 1)
		case opModMagic:
			a := regs[in.a] & in.mask
			regs[in.dst] = a - mulHi64(a, in.magic)*in.dcon
		case OpNot:
			regs[in.dst] = ^regs[in.a] & in.mask
		case OpNeg:
			regs[in.dst] = -regs[in.a] & in.mask
		case OpShl:
			regs[in.dst] = regs[in.a] << (regs[in.b] & 31) & in.mask
		case OpShr:
			regs[in.dst] = (regs[in.a] & in.mask) >> (regs[in.b] & 31)
		case OpSar:
			regs[in.dst] = uint64(sx(regs[in.a], in.sh)>>(regs[in.b]&31)) & in.mask
		case OpZExt:
			regs[in.dst] = regs[in.a] & in.mask // mask is the srcWidth mask
		case OpSExt:
			regs[in.dst] = uint64(sx(regs[in.a], in.sh)) & in.mask
		case OpExtract:
			regs[in.dst] = regs[in.a] >> (8 * uint(in.val)) & in.mask
		case OpSelect:
			if regs[in.a] != 0 {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case OpCmpEq:
			regs[in.dst] = b2u(regs[in.a]&in.mask == regs[in.b]&in.mask)
		case OpCmpNe:
			regs[in.dst] = b2u(regs[in.a]&in.mask != regs[in.b]&in.mask)
		case OpCmpLtS:
			regs[in.dst] = b2u(sx(regs[in.a], in.sh) < sx(regs[in.b], in.sh))
		case OpCmpLeS:
			regs[in.dst] = b2u(sx(regs[in.a], in.sh) <= sx(regs[in.b], in.sh))
		case OpCmpLtU:
			regs[in.dst] = b2u(regs[in.a]&in.mask < regs[in.b]&in.mask)
		case OpCmpLeU:
			regs[in.dst] = b2u(regs[in.a]&in.mask <= regs[in.b]&in.mask)
		case OpTable:
			idx := int64(regs[in.a])
			v, err := tableAt(in.table, in.elem, idx)
			if err != nil {
				return 0, err
			}
			regs[in.dst] = v
		case OpTableIn:
			idx := int64(regs[in.a])
			v, err := tableAt(bd.tbl, in.elem, idx)
			if err != nil {
				return 0, err
			}
			regs[in.dst] = v
		case OpIntToFP:
			regs[in.dst] = math.Float64bits(float64(sx(regs[in.a], in.sh)))
		case OpFPToInt:
			regs[in.dst] = uint64(int64(math.RoundToEven(math.Float64frombits(regs[in.a])))) & in.mask
		case OpFAdd:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) + math.Float64frombits(regs[in.b]))
		case OpFSub:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) - math.Float64frombits(regs[in.b]))
		case OpFMul:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) * math.Float64frombits(regs[in.b]))
		case OpFDiv:
			regs[in.dst] = math.Float64bits(math.Float64frombits(regs[in.a]) / math.Float64frombits(regs[in.b]))
		case OpCall:
			regs[in.dst] = math.Float64bits(in.fn(math.Float64frombits(regs[in.a])))
		default:
			return 0, fmt.Errorf("ir: compiled program contains unexecutable op %v", in.op)
		}
	}
	return regs[p.root], nil
}

// b2u maps a comparison outcome to the 0/1 register value.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mulHi64 returns the high 64 bits of the full 128-bit product.
func mulHi64(a, b uint64) uint64 {
	hi, _ := bits.Mul64(a, b)
	return hi
}

// tableAt reads one little-endian element, mirroring the interpreter.
func tableAt(table []byte, elem int, idx int64) (uint64, error) {
	off := idx * int64(elem)
	if off < 0 || off+int64(elem) > int64(len(table)) {
		return 0, errTable(idx, table, elem)
	}
	var r uint64
	for i := 0; i < elem; i++ {
		r |= uint64(table[off+int64(i)]) << (8 * i)
	}
	return r, nil
}

// Run evaluates the program once for output coordinate (x, y, c), binding
// src on the fly — the compiled counterpart of Expr.Eval, convenient for
// tests and one-off evaluation.  Repeated per-sample evaluation should use
// an Executor, which reuses the register file and tap offsets; whole
// regions render through the runtime (CompiledKernel.Runtime).
func (p *Program) Run(src Source, x, y, c int) (uint64, error) {
	bd := bindSource(src)
	return p.run(&bd, p.newState(&bd), x, y, c)
}

// CompiledKernel is a lifted kernel with every channel tree lowered to a
// register program.  It is immutable after Compile and safe for concurrent
// use; its regions render through the liftedkernels runtime (Runtime,
// Pipeline), per-sample evaluation goes through Executors.
type CompiledKernel struct {
	Name                          string
	OutWidth, OutHeight, Channels int
	OriginX, OriginY              int
	// MapX and MapY are the kernel's affine output->input index maps
	// (identity for classic stencils); see Kernel.MapX.
	MapX, MapY AxisMap
	Progs      []*Program
	// rows holds each channel program as a runtime row function.
	rows []liftedkernels.RowFunc
}

// Mapped reports whether the kernel carries a non-identity index map.
func (ck *CompiledKernel) Mapped() bool { return !ck.MapX.Identity() || !ck.MapY.Identity() }

// usesTableIn reports whether any channel program performs stage-input
// table lookups (and therefore needs a table bound at evaluation time).
func (ck *CompiledKernel) usesTableIn() bool {
	for _, p := range ck.Progs {
		for i := range p.insts {
			if p.insts[i].op == OpTableIn {
				return true
			}
		}
	}
	return false
}

// Compile lowers every channel tree of the kernel.
func (k *Kernel) Compile() (*CompiledKernel, error) {
	if len(k.Trees) != k.Channels {
		return nil, fmt.Errorf("ir: kernel %s has %d trees for %d channels", k.Name, len(k.Trees), k.Channels)
	}
	ck := &CompiledKernel{
		Name:     k.Name,
		OutWidth: k.OutWidth, OutHeight: k.OutHeight, Channels: k.Channels,
		OriginX: k.OriginX, OriginY: k.OriginY,
		MapX: k.MapX, MapY: k.MapY,
	}
	for c, t := range k.Trees {
		p, err := CompileExpr(t)
		if err != nil {
			return nil, fmt.Errorf("ir: kernel %s channel %d: %w", k.Name, c, err)
		}
		ck.Progs = append(ck.Progs, p)
	}
	ck.rows = ck.rowFuncs()
	return ck, nil
}

// Executor evaluates a compiled kernel one sample at a time against one
// bound source — any Source, flat or not.  It owns the scalar register
// files and precomputed tap offsets, so evaluation performs no allocation.
// An Executor is not safe for concurrent use.
type Executor struct {
	k      *CompiledKernel
	bd     binding
	scalar []*progState
}

// NewExecutor binds the kernel to a source.  Sources backed by
// image.Plane or image.Interleaved get flat-index addressing; other
// sources are sampled through the interface.
func (ck *CompiledKernel) NewExecutor(src Source) *Executor {
	ex := &Executor{k: ck, bd: bindSource(src)}
	for _, p := range ck.Progs {
		ex.scalar = append(ex.scalar, p.newState(&ex.bd))
	}
	return ex
}

// EvalAt evaluates channel c of output pixel (x, y) to one sample byte.
func (ex *Executor) EvalAt(x, y, c int) (uint8, error) {
	k := ex.k
	v, err := k.Progs[c].run(&ex.bd, ex.scalar[c], k.MapX.Apply(x)+k.OriginX, k.MapY.Apply(y)+k.OriginY, c)
	return uint8(v), err
}

// Eval renders the whole output region serially through the runtime, in
// row-major sample order, exactly like Kernel.Eval.  src must have a flat
// backing (see ImageOf).
func (ck *CompiledKernel) Eval(src Source) ([]byte, error) {
	img, err := ImageOf(src)
	if err != nil {
		return nil, err
	}
	return ck.Runtime().Eval(img, ck.OutWidth, ck.OutHeight)
}
