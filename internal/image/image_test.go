package image

import (
	"bytes"
	"testing"
)

func TestPlaneGeometry(t *testing.T) {
	cases := []struct {
		w, h, pad  int
		wantStride int
	}{
		{16, 8, 0, 16},
		{17, 8, 0, 32},
		{22, 10, 1, 32},  // 22+2 rounded up
		{30, 4, 1, 32},   // exactly 32
		{1, 1, 0, 16},    // minimum rounds up to one alignment unit
		{62, 3, 1, 64},   // 64 exactly
		{100, 2, 2, 112}, // 104 -> 112
	}
	for _, c := range cases {
		p := NewPlane(c.w, c.h, c.pad)
		if p.Stride != c.wantStride {
			t.Errorf("NewPlane(%d,%d,%d).Stride = %d, want %d", c.w, c.h, c.pad, p.Stride, c.wantStride)
		}
		if p.Stride%Align != 0 {
			t.Errorf("stride %d not %d-byte aligned", p.Stride, Align)
		}
		if len(p.Pix) != p.Stride*(c.h+2*c.pad) {
			t.Errorf("Pix size %d, want %d", len(p.Pix), p.Stride*(c.h+2*c.pad))
		}
	}
}

func TestPlaneIndexRoundTrip(t *testing.T) {
	p := NewPlane(22, 10, 1)
	seen := make(map[int]bool)
	for y := -1; y < p.Height+1; y++ {
		for x := -1; x < p.Width+1; x++ {
			i := p.Index(x, y)
			if i < 0 || i >= len(p.Pix) {
				t.Fatalf("Index(%d,%d) = %d out of range", x, y, i)
			}
			if seen[i] {
				t.Fatalf("Index(%d,%d) = %d collides with another coordinate", x, y, i)
			}
			seen[i] = true
			// Round-trip through the layout equations.
			if wantY := i/p.Stride - p.Pad; wantY != y {
				t.Fatalf("Index(%d,%d): recovered y %d", x, y, wantY)
			}
			if wantX := i%p.Stride - p.Pad; wantX != x {
				t.Fatalf("Index(%d,%d): recovered x %d", x, y, wantX)
			}
		}
	}
}

func TestPlaneInteriorRoundTrip(t *testing.T) {
	p := NewPlane(21, 9, 1)
	p.FillPattern(42)
	in := p.Interior()
	if len(in) != 21*9 {
		t.Fatalf("Interior length %d, want %d", len(in), 21*9)
	}
	q := NewPlane(21, 9, 1)
	q.SetInterior(in)
	if !q.Equal(p) {
		t.Error("SetInterior(Interior()) does not round-trip")
	}
}

func TestPadEdgesClamps(t *testing.T) {
	p := NewPlane(4, 3, 2)
	p.FillPattern(7)
	// Corners of the padding must equal the nearest interior corner.
	if got, want := p.At(-2, -2), p.At(0, 0); got != want {
		t.Errorf("top-left padding %d, want clamped %d", got, want)
	}
	if got, want := p.At(5, 4), p.At(3, 2); got != want {
		t.Errorf("bottom-right padding %d, want clamped %d", got, want)
	}
	if got, want := p.At(2, -1), p.At(2, 0); got != want {
		t.Errorf("top padding %d, want clamped %d", got, want)
	}
}

func TestInterleavedLayout(t *testing.T) {
	im := NewInterleaved(22, 5, 3)
	if im.Stride != 80 { // 66 rounded up to 16
		t.Errorf("Stride = %d, want 80", im.Stride)
	}
	if im.Index(1, 0, 0)-im.Index(0, 0, 0) != 3 {
		t.Error("adjacent pixels are not Channels bytes apart")
	}
	if im.Index(0, 1, 0)-im.Index(0, 0, 0) != im.Stride {
		t.Error("adjacent rows are not Stride bytes apart")
	}
	im.Set(3, 2, 1, 0xAB)
	if im.At(3, 2, 1) != 0xAB {
		t.Error("Set/At do not round-trip")
	}

	im.FillPattern(9)
	in := im.Interior()
	if len(in) != 22*5*3 {
		t.Fatalf("Interior length %d, want %d", len(in), 22*5*3)
	}
	for y := 0; y < im.Height; y++ {
		row := im.Pix[y*im.Stride : y*im.Stride+22*3]
		if !bytes.Equal(in[y*22*3:(y+1)*22*3], row) {
			t.Fatalf("Interior row %d does not match pixel data", y)
		}
	}
}

func TestPlaneFlatMatchesAt(t *testing.T) {
	p := NewPlane(22, 10, 2)
	p.FillPattern(11)
	pix, base, stride := p.Flat()
	for y := -p.Pad; y < p.Height+p.Pad; y++ {
		for x := -p.Pad; x < p.Width+p.Pad; x++ {
			if got, want := pix[base+y*stride+x], p.At(x, y); got != want {
				t.Fatalf("Flat[%d,%d] = %d, want At = %d", x, y, got, want)
			}
		}
	}
}

func TestInterleavedFlatMatchesAt(t *testing.T) {
	im := NewInterleaved(13, 7, 3)
	im.FillPattern(12)
	pix, base, stride, pixStep := im.Flat()
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			for c := 0; c < im.Channels; c++ {
				if got, want := pix[base+y*stride+x*pixStep+c], im.At(x, y, c); got != want {
					t.Fatalf("Flat[%d,%d,%d] = %d, want At = %d", x, y, c, got, want)
				}
			}
		}
	}
}

func TestFillPatternDeterministic(t *testing.T) {
	a := NewPlane(16, 16, 0)
	b := NewPlane(16, 16, 0)
	a.FillPattern(5)
	b.FillPattern(5)
	if !a.Equal(b) {
		t.Error("FillPattern is not deterministic for equal seeds")
	}
	c := NewPlane(16, 16, 0)
	c.FillPattern(6)
	if a.Equal(c) {
		t.Error("different seeds produced identical planes")
	}
	if a.DiffCount(c, 0) == 0 {
		t.Error("DiffCount reports no differing pixels for different seeds")
	}
}

// naivePadEdges is the clamp-to-edge definition PadEdges must match: every
// padding pixel takes the value of the nearest interior pixel.
func naivePadEdges(p *Plane) {
	clamp := func(v, hi int) int { return min(max(v, 0), hi) }
	for y := -p.Pad; y < p.Height+p.Pad; y++ {
		for x := -p.Pad; x < p.Width+p.Pad; x++ {
			if x >= 0 && x < p.Width && y >= 0 && y < p.Height {
				continue
			}
			p.Set(x, y, p.At(clamp(x, p.Width-1), clamp(y, p.Height-1)))
		}
	}
}

// TestPadEdgesMatchesNaiveClamp checks the border-only PadEdges against
// the per-pixel clamp definition over every small geometry.  The backing
// starts as junk, so the comparison of the whole Pix also proves nothing
// outside the padding (interior, alignment slack) is touched.
func TestPadEdgesMatchesNaiveClamp(t *testing.T) {
	r := rng(99)
	for pad := 0; pad <= 3; pad++ {
		for w := 1; w <= 17; w++ {
			for h := 1; h <= 17; h++ {
				p := NewPlane(w, h, pad)
				for i := range p.Pix {
					p.Pix[i] = byte(r.next())
				}
				want := p.Clone()
				naivePadEdges(want)
				p.PadEdges()
				if !bytes.Equal(p.Pix, want.Pix) {
					t.Fatalf("%dx%d pad %d: PadEdges differs from the naive clamp", w, h, pad)
				}
			}
		}
	}
}

// TestFillPatternIndependentOfLayout pins the sample stream every corpus
// input shares: a plane's interior is the same for every padding, and
// equals a one-channel interleaved image filled from the same seed.
func TestFillPatternIndependentOfLayout(t *testing.T) {
	im := NewInterleaved(19, 7, 1)
	im.FillPattern(3)
	want := im.Interior()
	for pad := 0; pad <= 3; pad++ {
		p := NewPlane(19, 7, pad)
		p.FillPattern(3)
		if !bytes.Equal(p.Interior(), want) {
			t.Errorf("pad %d: interior differs from the interleaved stream", pad)
		}
		q := p.Clone()
		naivePadEdges(q)
		if !bytes.Equal(p.Pix, q.Pix) {
			t.Errorf("pad %d: FillPattern padding is not the clamp of its interior", pad)
		}
	}
}
