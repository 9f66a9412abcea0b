package lift

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"helium/internal/ir"
)

// exprDecoder turns a fuzzer byte string into a bounded, arity-correct
// integer expression tree.  Only structurally valid trees are built — the
// canonicalizer's contract starts at well-formed extractor output — but
// within that, operators, widths, constants and tap offsets are whatever
// the bytes say.
type exprDecoder struct {
	data  []byte
	pos   int
	nodes int
}

func (d *exprDecoder) next() byte {
	if d.pos >= len(d.data) {
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

// canonOps are the integer operators the extractor can produce, tagged
// with their arity (OpSelect is handled separately).
var canonOps = []struct {
	op    ir.Op
	arity int
}{
	{ir.OpAdd, 2}, {ir.OpSub, 2}, {ir.OpMul, 2}, {ir.OpMulHi, 2},
	{ir.OpDiv, 2}, {ir.OpMod, 2}, {ir.OpAnd, 2}, {ir.OpOr, 2},
	{ir.OpXor, 2}, {ir.OpShl, 2}, {ir.OpShr, 2}, {ir.OpSar, 2},
	{ir.OpMin, 2}, {ir.OpMax, 2},
	{ir.OpCmpEq, 2}, {ir.OpCmpNe, 2}, {ir.OpCmpLtS, 2}, {ir.OpCmpLeS, 2},
	{ir.OpCmpLtU, 2}, {ir.OpCmpLeU, 2},
	{ir.OpNot, 1}, {ir.OpNeg, 1},
}

func (d *exprDecoder) width() int { return []int{1, 2, 4}[d.next()%3] }

func (d *exprDecoder) expr(depth int) *ir.Expr {
	d.nodes++
	b := d.next()
	if depth >= 8 || d.nodes > 300 || b < 64 {
		// Leaf.
		if b&1 == 0 {
			return ir.Const(int64(int8(d.next())) << (d.next() % 16))
		}
		return ir.Load(int(int8(d.next()))%4, int(int8(d.next()))%4, 0)
	}
	switch {
	case b < 80: // zext/sext/extract wrappers
		e := &ir.Expr{Width: d.width(), SrcWidth: d.width(), Args: []*ir.Expr{d.expr(depth + 1)}}
		switch b % 3 {
		case 0:
			e.Op = ir.OpZExt
		case 1:
			e.Op = ir.OpSExt
		default:
			e.Op = ir.OpExtract
			e.Val = int64(d.next() % 4)
		}
		return e
	case b < 96: // select
		return &ir.Expr{Op: ir.OpSelect, Width: d.width(),
			Args: []*ir.Expr{d.expr(depth + 1), d.expr(depth + 1), d.expr(depth + 1)}}
	case b < 112: // flattened associative chain (3..4 args)
		n := 3 + int(d.next()%2)
		e := &ir.Expr{Op: []ir.Op{ir.OpAdd, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor}[d.next()%5], Width: d.width()}
		for i := 0; i < n; i++ {
			e.Args = append(e.Args, d.expr(depth+1))
		}
		return e
	default:
		oa := canonOps[int(d.next())%len(canonOps)]
		e := &ir.Expr{Op: oa.op, Width: d.width()}
		for i := 0; i < oa.arity; i++ {
			e.Args = append(e.Args, d.expr(depth+1))
		}
		return e
	}
}

// FuzzCanon throws arbitrary well-formed trees at the canonicalizer and
// holds it to its two structural guarantees: it terminates without
// panicking, and it is idempotent — canonical form is a fixed point, so
// re-canonicalizing never changes the tree's key.  (Idempotence is what
// unification leans on: trees are compared by canonical key, so a canon
// that kept drifting would collapse nothing.)
func FuzzCanon(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{data: data}
		e := d.expr(0)
		c1 := Canonicalize(e)
		c2 := Canonicalize(c1)
		if k1, k2 := c1.Key(), c2.Key(); k1 != k2 {
			t.Fatalf("canonicalization is not idempotent:\n first: %s\nsecond: %s", k1, k2)
		}
	})
}

// TestCanonNeverAddsLoads pins the precondition of collectGuards' fast
// path, which drops a guard condition whose raw slice reads no input
// without canonicalizing it: canonicalization may fold loads away but
// never introduces one.  It runs over the FuzzCanon seed corpus and a few
// thousand random decoder inputs.
func TestCanonNeverAddsLoads(t *testing.T) {
	var inputs [][]byte
	dir := filepath.Join("testdata", "fuzz", "FuzzCanon")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if lit, ok := strings.CutPrefix(line, "[]byte("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				inputs = append(inputs, []byte(s))
			}
		}
	}
	if len(inputs) == 0 {
		t.Fatal("no FuzzCanon seeds found")
	}
	rng := uint64(0x5eed)
	for i := 0; i < 4000; i++ {
		b := make([]byte, 8+i%120)
		for j := range b {
			rng = rng*6364136223846793005 + 1442695040888963407
			b[j] = byte(rng >> 56)
		}
		inputs = append(inputs, b)
	}
	withLoads, folded := 0, 0
	for _, in := range inputs {
		e := (&exprDecoder{data: in}).expr(0)
		raw := containsLoad(e, map[*ir.Expr]bool{})
		canon := containsLoad(Canonicalize(e), map[*ir.Expr]bool{})
		if canon && !raw {
			t.Fatalf("canonicalizing a load-free tree introduced a load:\n in: %s\nout: %s", e, Canonicalize(e))
		}
		if raw {
			withLoads++
			if !canon {
				folded++
			}
		}
	}
	t.Logf("%d trees, %d with loads, %d of those folded to load-free", len(inputs), withLoads, folded)
	if withLoads == 0 {
		t.Fatal("no generated tree reads an input; the property was never exercised")
	}
}
