package ir

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fmtKeyHeader is the fmt-based rendering Key used before it switched to
// strconv appends; TestKeyMatchesFmtRendering pins the two byte for byte.
func fmtKeyHeader(e *Expr, b *strings.Builder, exactFloats bool) bool {
	switch e.Op {
	case OpLoad:
		fmt.Fprintf(b, "in(%d,%d,%d)", e.DX, e.DY, e.DC)
		return true
	case OpConst:
		fmt.Fprintf(b, "%d", e.Val)
		return true
	case OpConstF:
		if exactFloats {
			fmt.Fprintf(b, "f%016x", math.Float64bits(e.F))
		} else {
			fmt.Fprintf(b, "%g", e.F)
		}
		return true
	}
	b.WriteString(e.Op.String())
	switch e.Op {
	case OpZExt, OpSExt, OpIntToFP:
		fmt.Fprintf(b, "%d>%d", e.SrcWidth, e.Width)
	case OpExtract:
		fmt.Fprintf(b, "@%d w%d", e.Val, e.Width)
	case OpTable:
		fmt.Fprintf(b, "#%x/%d", tableFingerprint(e.Table), e.Elem)
	case OpTableIn:
		fmt.Fprintf(b, "/%d", e.Elem)
	case OpCall:
		fmt.Fprintf(b, ":%s", e.Sym)
	default:
		if e.Width != 0 {
			fmt.Fprintf(b, "w%d", e.Width)
		}
	}
	return false
}

func fmtKey(e *Expr, b *strings.Builder) {
	if fmtKeyHeader(e, b, false) {
		return
	}
	b.WriteString("(")
	for i, a := range e.Args {
		if i > 0 {
			b.WriteString(",")
		}
		fmtKey(a, b)
	}
	b.WriteString(")")
}

// keyGen builds random trees whose scalar fields hit the rendering's edge
// cases: negative offsets, extreme constants, every float class, every op
// with a scalar header, and op codes with no name.
type keyGen struct{ r *testRNG }

func (g *keyGen) int() int {
	vals := []int{0, 1, -1, 2, -2, 4, 7, -9, 100, -100, 1 << 20, -(1 << 31), math.MaxInt64, math.MinInt64}
	return vals[g.r.intn(len(vals))]
}

func (g *keyGen) int64() int64 {
	if g.r.intn(4) == 0 {
		return int64(g.r.next())
	}
	vals := []int64{0, 1, -1, 255, -256, 0x7fffffff, -0x80000000, 0xffffffff, math.MaxInt64, math.MinInt64}
	return vals[g.r.intn(len(vals))]
}

func (g *keyGen) float() float64 {
	switch g.r.intn(4) {
	case 0:
		return math.Float64frombits(g.r.next()) // any bit pattern, NaN payloads included
	case 1:
		return float64(int64(g.r.next())) / float64(1+g.r.intn(1000))
	}
	vals := []float64{0, math.Copysign(0, -1), 1, -2.25, 0.1, 1e21, 1e-7, 123456789, 5e-324,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	return vals[g.r.intn(len(vals))]
}

func (g *keyGen) expr(depth int) *Expr {
	if depth <= 0 || g.r.intn(4) == 0 {
		switch g.r.intn(3) {
		case 0:
			return &Expr{Op: OpLoad, DX: g.int(), DY: g.int(), DC: g.int()}
		case 1:
			return Const(g.int64())
		default:
			return ConstF(g.float())
		}
	}
	// Every op code up to one past OpCall, plus a few unnamed ones.
	op := Op(1 + g.r.intn(int(OpCall)+1))
	if g.r.intn(20) == 0 {
		op = Op(200 + g.r.intn(56))
	}
	e := &Expr{Op: op, Width: g.int(), SrcWidth: g.int(), Val: g.int64(), Elem: g.int()}
	if g.r.intn(3) == 0 {
		e.Width = 0
	}
	switch op {
	case OpTable:
		e.Table = make([]byte, g.r.intn(300))
		for i := range e.Table {
			e.Table[i] = byte(g.r.next())
		}
	case OpCall:
		e.Sym = []string{"sqrt", "floor", "", "x%d"}[g.r.intn(4)]
	}
	n := g.r.intn(4)
	for i := 0; i < n; i++ {
		e.Args = append(e.Args, g.expr(depth-1))
	}
	return e
}

// TestKeyMatchesFmtRendering checks that Key, rendered with strconv
// appends, is byte-identical to the fmt rendering it replaced, over random
// trees and over the exact-float header the compiler's CSE uses.
func TestKeyMatchesFmtRendering(t *testing.T) {
	r := testRNG(17)
	g := &keyGen{r: &r}
	for i := 0; i < 5000; i++ {
		e := g.expr(4)
		var want strings.Builder
		fmtKey(e, &want)
		if got := e.Key(); got != want.String() {
			t.Fatalf("tree %d: Key() = %q, fmt rendering %q", i, got, want.String())
		}
		var wantExact strings.Builder
		wantLeaf := fmtKeyHeader(e, &wantExact, true)
		got, leaf := e.appendKeyHeader([]byte("prefix:"), true)
		if string(got) != "prefix:"+wantExact.String() || leaf != wantLeaf {
			t.Fatalf("tree %d: exact header = %q (leaf %v), fmt %q (leaf %v)", i, got, leaf, wantExact.String(), wantLeaf)
		}
	}
}
