// Row-vectorized execution.  Every instruction processes a whole row of
// samples before the next dispatches, so the interpretive dispatch cost is
// paid once per instruction per row rather than once per node per sample.
// The row executor is generic over its register lane type: when the
// width-inference pass proves every register of a program fits 8, 16 or
// 32 bits it runs in that type instead of uint64 — the row register file
// shrinks by 8x/4x/2x, which keeps whole chunks of register rows inside
// L1 and moves 2-8x more samples per cache line through the hot loops.
// Execution is bit-exact with the 64-bit reference lanes — see width.go
// for the soundness argument — including error positions and messages.
package ir

import (
	"fmt"
	"math"
)

// lane is the set of register types the row executors run in: the narrow
// lanes the width pass can prove, and the 64-bit reference width.
type lane interface {
	~uint8 | ~uint16 | ~uint32 | ~uint64
}

// rowExec is one channel program's row-execution engine bound to a flat
// backing, in the program's lane type.
type rowExec interface {
	// runRow evaluates output samples x in [0, width) of channel c at
	// input row y, xbase being the input-x of output sample 0.
	runRow(xbase, y, c, width int) (int, error)
	// storeRow narrows the result row to bytes: dst[x*step] = uint8(res[x])
	// for x in [0, n).
	storeRow(dst []byte, step, n int)
	// retap re-resolves the tap offsets after the binding's geometry
	// changed.
	retap()
}

// newRowExec picks the row executor for a program — the narrowest lane the
// width pass proved — with register rows rowWidth samples wide.
func newRowExec(p *Program, bd *binding, rowWidth int) rowExec {
	switch p.width.laneBits {
	case 8:
		return newLaneState[uint8](p, bd, rowWidth)
	case 16:
		return newLaneState[uint16](p, bd, rowWidth)
	case 32:
		return newLaneState[uint32](p, bd, rowWidth)
	}
	return newLaneState[uint64](p, bd, rowWidth)
}

// laneState is a row executor's state: tap offsets resolved against the
// bound geometry plus a row register file in lane type T.
type laneState[T lane] struct {
	p  *Program
	bd *binding
	tapOffsets
	rows    [][]T
	argRows [][]T
}

func newLaneState[T lane](p *Program, bd *binding, rowWidth int) *laneState[T] {
	st := &laneState[T]{p: p, bd: bd}
	st.set(p, bd)
	st.rows = make([][]T, p.numRegs)
	backing := make([]T, p.numRegs*rowWidth)
	for r := range st.rows {
		st.rows[r] = backing[r*rowWidth : (r+1)*rowWidth]
	}
	for ci, cv := range p.consts {
		row := st.rows[ci]
		for x := range row {
			row[x] = T(cv)
		}
	}
	st.argRows = make([][]T, 0, 8)
	return st
}

func (st *laneState[T]) retap() { st.set(st.p, st.bd) }

func (st *laneState[T]) storeRow(dst []byte, step, n int) {
	res := st.rows[st.p.root]
	for x := 0; x < n; x++ {
		dst[x*step] = uint8(res[x])
	}
}

// gatherArgs collects the operand rows of an n-ary instruction, sliced to
// the active width, into the reusable scratch list.
func (st *laneState[T]) gatherArgs(in *pinst, n int) {
	as := st.argRows[:0]
	for _, r := range in.args {
		as = append(as, st.rows[r][:n])
	}
	st.argRows = as
}

// runRow executes the program over one output row.
//
// Error semantics reproduce per-sample evaluation exactly: when an
// instruction faults at some x the row narrows to [0, x) for the remaining
// instructions, so the reported fault is the one an x-ascending per-sample
// loop would have hit first.  Returns the failing x (-1 if none).
//
// Float instructions run only in 64-bit lanes: the width pass never
// narrows a program containing one, and a narrow executor meeting one
// reports it rather than truncating bit patterns.
func (st *laneState[T]) runRow(xbase, y, c, width int) (int, error) {
	p, bd := st.p, st.bd
	wide := uint64(^T(0)) == ^uint64(0)
	n := width
	errX := -1
	var firstErr error
	fail := func(x int, err error) {
		errX, firstErr = x, err
		n = x
	}
	pos0 := bd.base + y*bd.stride + xbase*bd.pixStep + c*bd.chanStep
	xs := bd.xstep
	ps := bd.pixStep * xs
	rows := st.rows
	for i := range p.insts {
		if n == 0 {
			break
		}
		in := &p.insts[i]
		if in.dead {
			continue
		}
		if !wide && (in.op.IsFloat() || in.op == OpFPToInt) {
			return 0, errNotLaneExecutable(in.op)
		}
		d := rows[in.dst][:n]
		switch in.op {
		case OpLoad:
			off := pos0 + st.offs[i]
			lo, hi := off, off+(n-1)*ps
			if lo >= 0 && hi < len(bd.pix) {
				pix := bd.pix
				for x := range d {
					d[x] = T(pix[off+x*ps])
				}
			} else {
				for x := range d {
					idx := off + x*ps
					if uint(idx) >= uint(len(bd.pix)) {
						fail(x, errLoad(xbase+x*xs+int(in.dx), y+int(in.dy), c+int(in.dc)))
						break
					}
					d[x] = T(bd.pix[idx])
				}
			}
		case opSumTaps:
			bias := T(uint64(in.val))
			mask := T(in.mask)
			pix := bd.pix
			safe := true
			for _, off := range st.sums[i] {
				lo, hi := pos0+off, pos0+off+(n-1)*ps
				if lo < 0 || hi >= len(pix) {
					safe = false
					break
				}
			}
			if safe {
				for x := range d {
					s := bias
					base := pos0 + x*ps
					for _, off := range st.sums[i] {
						s += T(pix[base+off])
					}
					d[x] = s
				}
			} else {
				for x := range d {
					s := bias
					base := pos0 + x*ps
					bad := false
					for _, off := range st.sums[i] {
						idx := base + off
						if uint(idx) >= uint(len(pix)) {
							fail(x, errLoad(xbase+x*xs, y, c))
							bad = true
							break
						}
						s += T(pix[idx])
					}
					if bad {
						break
					}
					d[x] = s
				}
			}
			d = rows[in.dst][:n] // n may have shrunk
			for _, r := range in.args {
				a := rows[r][:n]
				for x := range d {
					d[x] += a[x]
				}
			}
			for x := range d {
				d[x] &= mask
			}
		case opMulN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] *= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opAndN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] &= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opOrN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] |= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opXorN:
			st.gatherArgs(in, n)
			as := st.argRows
			a0 := as[0]
			for x := range d {
				d[x] = a0[x]
			}
			for _, a := range as[1:] {
				for x := range d {
					d[x] ^= a[x]
				}
			}
			mask := T(in.mask)
			for x := range d {
				d[x] &= mask
			}
		case opMinN:
			st.gatherArgs(in, n)
			as := st.argRows
			sh, mask := in.sh, in.mask
			a0 := as[0]
			for x := range d {
				s := sx(uint64(a0[x]), sh)
				for _, a := range as[1:] {
					if v := sx(uint64(a[x]), sh); v < s {
						s = v
					}
				}
				d[x] = T(uint64(s) & mask)
			}
		case opMaxN:
			st.gatherArgs(in, n)
			as := st.argRows
			sh, mask := in.sh, in.mask
			a0 := as[0]
			for x := range d {
				s := sx(uint64(a0[x]), sh)
				for _, a := range as[1:] {
					if v := sx(uint64(a[x]), sh); v > s {
						s = v
					}
				}
				d[x] = T(uint64(s) & mask)
			}
		case OpSub:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = (a[x] - b[x]) & mask
			}
		case OpMulHi:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := in.mask
			for x := range d {
				d[x] = T((uint64(a[x]) & 0xffffffff) * (uint64(b[x]) & 0xffffffff) >> 32 & mask)
			}
		case OpDiv:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				dv := b[x] & mask
				if dv == 0 {
					fail(x, errDivZero())
					break
				}
				d[x] = (a[x] & mask) / dv
			}
		case OpMod:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				dv := b[x] & mask
				if dv == 0 {
					fail(x, errModZero())
					break
				}
				d[x] = (a[x] & mask) % dv
			}
		case opDivShift:
			a := rows[in.a][:n]
			mask, s := T(in.mask), uint(in.val)
			for x := range d {
				d[x] = (a[x] & mask) >> s
			}
		case opDivMagic:
			a := rows[in.a][:n]
			mask, m := in.mask, in.magic
			for x := range d {
				d[x] = T(mulHi64(uint64(a[x])&mask, m))
			}
		case opModShift:
			a := rows[in.a][:n]
			mask, dm := T(in.mask), T(in.dcon-1)
			for x := range d {
				d[x] = a[x] & mask & dm
			}
		case opModMagic:
			a := rows[in.a][:n]
			mask, m, dc := in.mask, in.magic, in.dcon
			for x := range d {
				v := uint64(a[x]) & mask
				d[x] = T(v - mulHi64(v, m)*dc)
			}
		case OpNot:
			a := rows[in.a][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = ^a[x] & mask
			}
		case OpNeg:
			a := rows[in.a][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = -a[x] & mask
			}
		case OpShl:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = a[x] << (b[x] & 31) & mask
			}
		case OpShr:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = (a[x] & mask) >> (b[x] & 31)
			}
		case OpSar:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask, sh := in.mask, in.sh
			for x := range d {
				d[x] = T(uint64(sx(uint64(a[x]), sh)>>(uint64(b[x])&31)) & mask)
			}
		case OpZExt:
			a := rows[in.a][:n]
			mask := T(in.mask) // the srcWidth mask
			for x := range d {
				d[x] = a[x] & mask
			}
		case OpSExt:
			a := rows[in.a][:n]
			mask, sh := in.mask, in.sh
			for x := range d {
				d[x] = T(uint64(sx(uint64(a[x]), sh)) & mask)
			}
		case OpExtract:
			a := rows[in.a][:n]
			mask, s := T(in.mask), 8*uint(in.val)
			for x := range d {
				d[x] = a[x] >> s & mask
			}
		case OpSelect:
			cond, bv, cv := rows[in.a][:n], rows[in.b][:n], rows[in.c][:n]
			for x := range d {
				if cond[x] != 0 {
					d[x] = bv[x]
				} else {
					d[x] = cv[x]
				}
			}
		case OpCmpEq:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask == b[x]&mask))
			}
		case OpCmpNe:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask != b[x]&mask))
			}
		case OpCmpLtS:
			a, b := rows[in.a][:n], rows[in.b][:n]
			sh := in.sh
			for x := range d {
				d[x] = T(b2u(sx(uint64(a[x]), sh) < sx(uint64(b[x]), sh)))
			}
		case OpCmpLeS:
			a, b := rows[in.a][:n], rows[in.b][:n]
			sh := in.sh
			for x := range d {
				d[x] = T(b2u(sx(uint64(a[x]), sh) <= sx(uint64(b[x]), sh)))
			}
		case OpCmpLtU:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask < b[x]&mask))
			}
		case OpCmpLeU:
			a, b := rows[in.a][:n], rows[in.b][:n]
			mask := T(in.mask)
			for x := range d {
				d[x] = T(b2u(a[x]&mask <= b[x]&mask))
			}
		case OpTable:
			a := rows[in.a][:n]
			for x := range d {
				v, err := tableAt(in.table, in.elem, int64(a[x]))
				if err != nil {
					fail(x, err)
					break
				}
				d[x] = T(v)
			}
		case OpTableIn:
			a := rows[in.a][:n]
			for x := range d {
				v, err := tableAt(bd.tbl, in.elem, int64(a[x]))
				if err != nil {
					fail(x, err)
					break
				}
				d[x] = T(v)
			}
		case OpIntToFP:
			a := rows[in.a][:n]
			sh := in.sh
			for x := range d {
				d[x] = T(math.Float64bits(float64(sx(uint64(a[x]), sh))))
			}
		case OpFPToInt:
			a := rows[in.a][:n]
			mask := in.mask
			for x := range d {
				d[x] = T(uint64(int64(math.RoundToEven(math.Float64frombits(uint64(a[x]))))) & mask)
			}
		case OpFAdd:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) + math.Float64frombits(uint64(b[x]))))
			}
		case OpFSub:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) - math.Float64frombits(uint64(b[x]))))
			}
		case OpFMul:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) * math.Float64frombits(uint64(b[x]))))
			}
		case OpFDiv:
			a, b := rows[in.a][:n], rows[in.b][:n]
			for x := range d {
				d[x] = T(math.Float64bits(math.Float64frombits(uint64(a[x])) / math.Float64frombits(uint64(b[x]))))
			}
		case OpCall:
			a := rows[in.a][:n]
			fn := in.fn
			for x := range d {
				d[x] = T(math.Float64bits(fn(math.Float64frombits(uint64(a[x])))))
			}
		default:
			return 0, fmt.Errorf("ir: compiled program contains unexecutable op %v", in.op)
		}
	}
	return errX, firstErr
}
