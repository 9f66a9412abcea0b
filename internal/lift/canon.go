package lift

import (
	"math"
	"sort"

	"helium/internal/ir"
)

// Canonicalize rewrites an extracted expression tree into the canonical
// form the pipeline compares trees in (paper section 5): constants fold,
// associative integer chains flatten and sort, branch-free clamp idioms
// become min/max, and value-range analysis removes narrowing operations
// that cannot change the value.  Distinct dynamic copies of the same
// source computation — unrolled lanes, peeled remainder iterations, tile
// positions — all canonicalize to the same tree.  Floating point chains
// are never reassociated or reordered: that would change rounding.
func Canonicalize(e *ir.Expr) *ir.Expr {
	return newCanonicalizer().canon(e)
}

// canonicalizer is Canonicalize with memory.  Canonicalization is a pure
// function of a tree's structure, so the canonical form of a node is
// memoized by its pointer: a shared subexpression (the extractor's memo
// and hash-consing share them within and across samples) is rewritten
// once, not once per path to it.  Canonical nodes are themselves shared
// between the trees a canonicalizer returns, so they are never mutated:
// passes that need different nodes (unify's centering, the affine and
// reduction rebasing) build new ones.
type canonicalizer struct {
	memo map[*ir.Expr]*ir.Expr
	// keys caches the structural key of canonical nodes: the operand sort
	// and the clamp matchers compare keys, which would otherwise be
	// re-rendered on every comparison.
	keys map[*ir.Expr]string
}

func newCanonicalizer() *canonicalizer {
	return &canonicalizer{memo: make(map[*ir.Expr]*ir.Expr), keys: make(map[*ir.Expr]string)}
}

// canon returns the canonical form of e.
func (c *canonicalizer) canon(e *ir.Expr) *ir.Expr {
	if r, ok := c.memo[e]; ok {
		return r
	}
	args := make([]*ir.Expr, len(e.Args))
	for i, a := range e.Args {
		args[i] = c.canon(a)
	}
	n := &ir.Expr{
		Op: e.Op, DX: e.DX, DY: e.DY, DC: e.DC,
		Val: e.Val, F: e.F, Width: e.Width, SrcWidth: e.SrcWidth,
		Sym: e.Sym, Table: e.Table, Elem: e.Elem, Args: args,
	}
	r := c.rewrite(n)
	c.memo[e] = r
	return r
}

// key returns e's structural key, rendered once per node.
func (c *canonicalizer) key(e *ir.Expr) string {
	k, ok := c.keys[e]
	if !ok {
		k = e.Key()
		c.keys[e] = k
	}
	return k
}

func (c *canonicalizer) rewrite(e *ir.Expr) *ir.Expr {
	e = foldConst(e)
	if e.Op == ir.OpConst || e.Op == ir.OpConstF {
		return e
	}

	switch e.Op {
	case ir.OpSelect:
		return c.rewriteSelect(e)
	case ir.OpZExt:
		// Zero extension of a value that already fits its source width is
		// the value itself.
		if iv := ir.Bounds(e.Args[0]); iv.Within(0, int64(maskOf(e.SrcWidth))) {
			return e.Args[0]
		}
	case ir.OpSExt:
		// Sign extension with a provably clear sign bit changes nothing.
		if iv := ir.Bounds(e.Args[0]); iv.Within(0, int64(maskOf(e.SrcWidth))>>1) {
			return e.Args[0]
		}
	case ir.OpExtract:
		// Extracting the low bytes of a value that fits in them is a no-op.
		if e.Val == 0 {
			if iv := ir.Bounds(e.Args[0]); iv.Within(0, int64(maskOf(e.Width))) {
				return e.Args[0]
			}
		}
	case ir.OpShl, ir.OpShr, ir.OpSar:
		if isConst(e.Args[1], 0) {
			return e.Args[0]
		}
	case ir.OpSub:
		if isConst(e.Args[1], 0) {
			return e.Args[0]
		}
	}

	if e.Op.Associative() {
		e = c.flatten(e)
		if e.Op == ir.OpConst || len(e.Args) == 1 {
			if e.Op == ir.OpConst {
				return e
			}
			return e.Args[0]
		}
		if m := c.matchMin(e); m != nil {
			return m
		}
		if m := c.matchMax(e); m != nil {
			return m
		}
	}
	return e
}

// foldConst evaluates operations whose arguments are all constants.
func foldConst(e *ir.Expr) *ir.Expr {
	switch e.Op {
	case ir.OpLoad, ir.OpConst, ir.OpConstF, ir.OpTable, ir.OpSelect:
		return e
	}
	for _, a := range e.Args {
		if a.Op != ir.OpConst && a.Op != ir.OpConstF {
			return e
		}
	}
	v, err := e.Eval(nil, 0, 0, 0)
	if err != nil {
		return e
	}
	if e.Op.IsFloat() {
		return ir.ConstF(math.Float64frombits(v))
	}
	return ir.Const(int64(v))
}

// keyedArg is an operand with its sort key, for flatten.
type keyedArg struct {
	e     *ir.Expr
	key   string
	konst bool
}

// flatten merges nested chains of the same associative operation, combines
// constant operands, drops identity elements and sorts the operands by
// canonical key, so every unrolled copy of the same reduction linearizes
// identically.
func (c *canonicalizer) flatten(e *ir.Expr) *ir.Expr {
	var args []*ir.Expr
	var consts []int64
	var walk func(n *ir.Expr)
	walk = func(n *ir.Expr) {
		if n.Op == e.Op && n.Width == e.Width {
			for _, a := range n.Args {
				walk(a)
			}
			return
		}
		if n.Op == ir.OpConst {
			consts = append(consts, n.Val)
			return
		}
		args = append(args, n)
	}
	for _, a := range e.Args {
		walk(a)
	}

	if len(consts) > 0 {
		cval := consts[0]
		for _, c := range consts[1:] {
			switch e.Op {
			case ir.OpAdd:
				cval += c
			case ir.OpMul:
				cval *= c
			case ir.OpAnd:
				cval &= c
			case ir.OpOr:
				cval |= c
			case ir.OpXor:
				cval ^= c
			case ir.OpMin:
				cval = min(cval, c)
			case ir.OpMax:
				cval = max(cval, c)
			}
		}
		identity := false
		switch e.Op {
		case ir.OpAdd, ir.OpOr, ir.OpXor:
			identity = cval == 0 && len(args) > 0
		case ir.OpMul:
			if cval == 0 {
				return ir.Const(0)
			}
			identity = cval == 1 && len(args) > 0
		case ir.OpAnd:
			identity = e.Width > 0 && uint64(cval) == maskOf(e.Width) && len(args) > 0
		}
		if !identity {
			args = append(args, ir.Const(cval))
		}
	}

	// Canonical operand order: non-constants by key, constants last.  The
	// keys are looked up once per operand, not once per comparison.
	ops := make([]keyedArg, len(args))
	for i, a := range args {
		ops[i] = keyedArg{e: a, konst: a.Op == ir.OpConst || a.Op == ir.OpConstF}
		if !ops[i].konst {
			ops[i].key = c.key(a)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool {
		if ops[i].konst != ops[j].konst {
			return ops[j].konst
		}
		return ops[i].key < ops[j].key
	})
	for i := range ops {
		args[i] = ops[i].e
	}
	if len(args) == 1 {
		return args[0]
	}
	return &ir.Expr{Op: e.Op, Width: e.Width, Args: args}
}

func maskOf(width int) uint64 {
	return 1<<(8*width) - 1
}

func isConst(e *ir.Expr, v int64) bool {
	return e.Op == ir.OpConst && e.Val == v
}

// rewriteSelect simplifies a predicated node produced by branch-aware
// lifting.  A constant condition picks its arm, equal arms collapse, and
// the compare-and-pick shapes that are provably clamps become min/max —
// anything else stays a select.
func (c *canonicalizer) rewriteSelect(e *ir.Expr) *ir.Expr {
	cond, a, b := e.Args[0], e.Args[1], e.Args[2]
	if cond.Op == ir.OpConst {
		if cond.Val != 0 {
			return a
		}
		return b
	}
	if c.key(a) == c.key(b) {
		return a
	}
	// Hoist the store-narrowing byte extraction out of the arms so clamp
	// recognition sees the compare operands themselves:
	//
	//	select(c, byteN(x), K) == byteN(select(c, x, K))
	//
	// (a select only picks a value, so extraction commutes with it; a
	// constant arm that already fits the extracted width is its own
	// extraction).  The rewritten select often becomes min/max, whose
	// bounds then discharge the extraction entirely.
	if h := c.hoistExtract(cond, a, b); h != nil {
		return h
	}
	if cond.Op != ir.OpCmpLtS && cond.Op != ir.OpCmpLeS {
		return e
	}
	// select(x < y, x, y) is min(x, y); select(x < y, y, x) is max(x, y).
	// Both hold for <= as well: on equality every form yields the same
	// value.
	l, r := cond.Args[0], cond.Args[1]
	lk, rk, ak, bk := c.key(l), c.key(r), c.key(a), c.key(b)
	w := cond.Width
	if ak == lk && bk == rk {
		return c.rewrite(&ir.Expr{Op: ir.OpMin, Width: w, Args: []*ir.Expr{a, b}})
	}
	if ak == rk && bk == lk {
		return c.rewrite(&ir.Expr{Op: ir.OpMax, Width: w, Args: []*ir.Expr{a, b}})
	}
	// Two-sided clamps built from sequential branches:
	//
	//	select(L <= v, min(v, C), L)  ==  min(max(v, L), C)   when C >= L
	//	select(v <= C, max(v, L), C)  ==  min(max(v, L), C)   when C >= L
	//
	// (the dropped compare cannot fire on the clamped side because the
	// clamp constants are ordered).
	if l.Op == ir.OpConst && b.Op == ir.OpConst && l.Val == b.Val &&
		a.Op == ir.OpMin && len(a.Args) == 2 {
		if k := c.constOperand(a, rk); k != nil && k.Val >= l.Val {
			return c.rewrite(&ir.Expr{Op: ir.OpMin, Width: w, Args: []*ir.Expr{
				c.rewrite(&ir.Expr{Op: ir.OpMax, Width: w, Args: []*ir.Expr{r, ir.Const(l.Val)}}), k,
			}})
		}
	}
	if r.Op == ir.OpConst && b.Op == ir.OpConst && r.Val == b.Val &&
		a.Op == ir.OpMax && len(a.Args) == 2 {
		if k := c.constOperand(a, lk); k != nil && r.Val >= k.Val {
			return c.rewrite(&ir.Expr{Op: ir.OpMin, Width: w, Args: []*ir.Expr{
				c.rewrite(&ir.Expr{Op: ir.OpMax, Width: w, Args: []*ir.Expr{l, k}}), ir.Const(r.Val),
			}})
		}
	}
	return e
}

// hoistExtract rewrites select(c, byte0(x), y) to byte0(select(c, x, y))
// when y is a constant fitting the extracted width (or an identical
// extraction), and nil when the shape does not apply.
func (c *canonicalizer) hoistExtract(cond, a, b *ir.Expr) *ir.Expr {
	ex := a
	other, otherFirst := b, false
	if ex.Op != ir.OpExtract || ex.Val != 0 {
		ex, other, otherFirst = b, a, true
	}
	if ex.Op != ir.OpExtract || ex.Val != 0 {
		return nil
	}
	var inner *ir.Expr
	switch {
	case other.Op == ir.OpConst && other.Val >= 0 && uint64(other.Val) <= maskOf(ex.Width):
		inner = other
	case other.Op == ir.OpExtract && other.Val == 0 && other.Width == ex.Width && other.SrcWidth == ex.SrcWidth:
		inner = other.Args[0]
	default:
		return nil
	}
	args := []*ir.Expr{cond, ex.Args[0], inner}
	if otherFirst {
		args = []*ir.Expr{cond, inner, ex.Args[0]}
	}
	sel := c.rewriteSelect(&ir.Expr{Op: ir.OpSelect, Args: args})
	return c.rewrite(&ir.Expr{Op: ir.OpExtract, Val: 0, Width: ex.Width, SrcWidth: ex.SrcWidth, Args: []*ir.Expr{sel}})
}

// constOperand returns the constant bound of a two-operand min/max whose
// other operand's key is vKey.
func (c *canonicalizer) constOperand(m *ir.Expr, vKey string) *ir.Expr {
	for i, arg := range m.Args {
		if arg.Op == ir.OpConst && c.key(m.Args[1-i]) == vKey {
			return arg
		}
	}
	return nil
}

// matchMax recognizes the branch-free lower clamp
//
//	x & ^(x >>a 31)  ==  max(x, 0)
//
// on a flattened, sorted AND node.
func (c *canonicalizer) matchMax(e *ir.Expr) *ir.Expr {
	if e.Op != ir.OpAnd || len(e.Args) != 2 || e.Width != 4 {
		return nil
	}
	for i := 0; i < 2; i++ {
		x, not := e.Args[i], e.Args[1-i]
		if not.Op != ir.OpNot {
			continue
		}
		sar := not.Args[0]
		if sar.Op != ir.OpSar || !isConst(sar.Args[1], 31) {
			continue
		}
		if c.key(sar.Args[0]) == c.key(x) {
			return &ir.Expr{Op: ir.OpMax, Width: 4, Args: []*ir.Expr{x, ir.Const(0)}}
		}
	}
	return nil
}

// matchMin recognizes the branch-free upper clamp
//
//	c + ((x - c) & ((x - c) >>a 31))  ==  min(x, c)
//
// on a flattened, sorted ADD node.
func (c *canonicalizer) matchMin(e *ir.Expr) *ir.Expr {
	if e.Op != ir.OpAdd || len(e.Args) != 2 || e.Width != 4 {
		return nil
	}
	for i := 0; i < 2; i++ {
		k, and := e.Args[i], e.Args[1-i]
		if k.Op != ir.OpConst || and.Op != ir.OpAnd || len(and.Args) != 2 {
			continue
		}
		for j := 0; j < 2; j++ {
			t, sar := and.Args[j], and.Args[1-j]
			if sar.Op != ir.OpSar || !isConst(sar.Args[1], 31) || c.key(sar.Args[0]) != c.key(t) {
				continue
			}
			if t.Op != ir.OpSub || !isConst(t.Args[1], k.Val) {
				continue
			}
			return &ir.Expr{Op: ir.OpMin, Width: 4, Args: []*ir.Expr{t.Args[0], ir.Const(k.Val)}}
		}
	}
	return nil
}
