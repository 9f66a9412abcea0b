package lift

import (
	"math"

	"helium/internal/ir"
)

// interner hash-conses expression nodes: a node whose scalar fields and
// (already interned) children match an earlier node is that node.  The
// extractor builds every node through one, so identical unrolled copies of
// a computation come out as one pointer and the canonicalizer's memo
// rewrites them once.  Interned nodes are shared, so they are never
// mutated.  An interner is not safe for concurrent use: each extraction
// worker owns one.
type interner struct {
	nodes map[nodeKey]*ir.Expr
}

// nodeKey is a node's identity up to its children's pointers.  Nodes with
// more than len(args) children are not interned.
type nodeKey struct {
	op              ir.Op
	nargs           uint8
	dx, dy, dc      int
	val             int64
	f               uint64
	width, srcWidth int
	elem            int
	sym             string
	table           *byte
	tableLen        int
	args            [3]*ir.Expr
}

func newInterner() *interner {
	return &interner{nodes: make(map[nodeKey]*ir.Expr)}
}

// node returns the interned node equal to proto with children args
// (proto.Args is ignored), copying proto and args only the first time
// such a node is seen.  Neither is retained, so callers pass a stack
// literal and stack arguments: an interned hit allocates nothing.
func (in *interner) node(proto *ir.Expr, args ...*ir.Expr) *ir.Expr {
	if len(args) > len(nodeKey{}.args) {
		return cloneNode(proto, args)
	}
	k := nodeKey{
		op: proto.Op, nargs: uint8(len(args)),
		dx: proto.DX, dy: proto.DY, dc: proto.DC,
		val: proto.Val, f: math.Float64bits(proto.F),
		width: proto.Width, srcWidth: proto.SrcWidth, elem: proto.Elem,
		sym: proto.Sym, tableLen: len(proto.Table),
	}
	if len(proto.Table) > 0 {
		k.table = &proto.Table[0]
	}
	copy(k.args[:], args)
	if n, ok := in.nodes[k]; ok {
		return n
	}
	n := cloneNode(proto, args)
	in.nodes[k] = n
	return n
}

// cloneNode copies one node to the heap with children args.
func cloneNode(proto *ir.Expr, args []*ir.Expr) *ir.Expr {
	n := new(ir.Expr)
	*n = *proto
	n.Args = nil
	if len(args) > 0 {
		n.Args = append([]*ir.Expr(nil), args...)
	}
	return n
}

func (in *interner) konst(v int64) *ir.Expr {
	return in.node(&ir.Expr{Op: ir.OpConst, Val: v})
}

func (in *interner) konstF(f float64) *ir.Expr {
	return in.node(&ir.Expr{Op: ir.OpConstF, F: f})
}

func (in *interner) load(dx, dy, dc int) *ir.Expr {
	return in.node(&ir.Expr{Op: ir.OpLoad, DX: dx, DY: dy, DC: dc})
}

func (in *interner) bin(op ir.Op, width int, a, b *ir.Expr) *ir.Expr {
	return in.node(&ir.Expr{Op: op, Width: width}, a, b)
}

// shiftLoads returns e with every load moved by (dx, dy), building new
// nodes through in (never mutating e, whose nodes may be shared).  Subtrees
// without loads are returned as they are; memo keeps the walk linear on
// shared DAGs and is keyed by e's nodes.
func shiftLoads(in *interner, e *ir.Expr, dx, dy int, memo map[*ir.Expr]*ir.Expr) *ir.Expr {
	if r, ok := memo[e]; ok {
		return r
	}
	r := e
	if e.Op == ir.OpLoad {
		r = in.load(e.DX+dx, e.DY+dy, e.DC)
	} else if len(e.Args) > 0 {
		var small [3]*ir.Expr
		args := small[:0]
		changed := false
		for _, a := range e.Args {
			s := shiftLoads(in, a, dx, dy, memo)
			changed = changed || s != a
			args = append(args, s)
		}
		if changed {
			r = in.node(e, args...)
		}
	}
	memo[e] = r
	return r
}
