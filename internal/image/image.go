// Package image provides the pixel buffer layouts used by the legacy
// applications in this reproduction and by the lifted kernels: padded planar
// 8-bit planes (the Photoshop-like layout described in paper section 4.3)
// and interleaved RGB rows (the IrfanView-like layout).
//
// All content is generated deterministically so analyses and tests are
// reproducible without external image files.
package image

import "fmt"

// Align is the scanline alignment in bytes used by the planar layout.
const Align = 16

// Plane is a single 8-bit channel with optional edge padding and scanlines
// rounded up to Align bytes, exactly the layout Helium reverse engineers
// for Photoshop ("pads each edge by one pixel, then rounds each scanline up
// ... for 16-byte alignment").
type Plane struct {
	// Width and Height are the interior (unpadded) extents in pixels.
	Width, Height int
	// Pad is the edge padding in pixels on every side.
	Pad int
	// Stride is the distance in bytes between the starts of consecutive
	// scanlines (covers interior plus padding, rounded up to Align).
	Stride int
	// Pix holds Stride*(Height+2*Pad) bytes.
	Pix []byte
}

// NewPlane allocates a plane with the given interior size and edge padding.
func NewPlane(width, height, pad int) *Plane {
	if width <= 0 || height <= 0 || pad < 0 {
		panic(fmt.Sprintf("image: invalid plane dimensions %dx%d pad %d", width, height, pad))
	}
	stride := (width + 2*pad + Align - 1) / Align * Align
	return &Plane{
		Width:  width,
		Height: height,
		Pad:    pad,
		Stride: stride,
		Pix:    make([]byte, stride*(height+2*pad)),
	}
}

// Index returns the offset into Pix of interior pixel (x, y).  Coordinates
// may extend into the padding (negative or >= extent) by up to Pad pixels.
func (p *Plane) Index(x, y int) int {
	return (y+p.Pad)*p.Stride + (x + p.Pad)
}

// At returns the pixel at interior coordinates (x, y).
func (p *Plane) At(x, y int) byte { return p.Pix[p.Index(x, y)] }

// Set stores a pixel at interior coordinates (x, y).
func (p *Plane) Set(x, y int, v byte) { p.Pix[p.Index(x, y)] = v }

// Flat exposes the plane's raw backing for flat-index addressing: pixel
// (x, y) lives at pix[base + y*stride + x], for interior and padding
// coordinates alike.  The compiled IR backend uses this to fold a stencil
// tap into a single indexed load with no per-sample interface dispatch.
func (p *Plane) Flat() (pix []byte, base, stride int) {
	return p.Pix, p.Index(0, 0), p.Stride
}

// Interior returns a copy of the interior pixels in row-major order,
// without padding.  This is the "known input data" Helium searches for in
// the memory dump during dimensionality inference.
func (p *Plane) Interior() []byte {
	out := make([]byte, 0, p.Width*p.Height)
	for y := 0; y < p.Height; y++ {
		row := p.Index(0, y)
		out = append(out, p.Pix[row:row+p.Width]...)
	}
	return out
}

// SetInterior fills the interior from row-major data of size Width*Height.
func (p *Plane) SetInterior(data []byte) {
	if len(data) != p.Width*p.Height {
		panic(fmt.Sprintf("image: interior size mismatch: got %d want %d", len(data), p.Width*p.Height))
	}
	for y := 0; y < p.Height; y++ {
		copy(p.Pix[p.Index(0, y):], data[y*p.Width:(y+1)*p.Width])
	}
}

// FillPattern fills the interior with a deterministic pseudo-random pattern
// derived from seed and replicates edge pixels into the padding.  Samples
// are drawn in row-major order, so the interior depends only on the seed
// and the extents, never on the padding.
func (p *Plane) FillPattern(seed uint64) {
	r := rng(seed)
	for y := 0; y < p.Height; y++ {
		row := p.Pix[p.Index(0, y):][:p.Width]
		for x := range row {
			row[x] = byte(r.next())
		}
	}
	p.PadEdges()
}

// PadEdges replicates the nearest interior pixel into the padding region
// (clamp-to-edge), the boundary handling the Photoshop-like host uses.
// Only the border is written: each interior row's left and right margins
// take its edge pixels, then the first and last padded rows are copied
// into the top and bottom margins, corners included.
func (p *Plane) PadEdges() {
	if p.Pad == 0 {
		return
	}
	for y := 0; y < p.Height; y++ {
		row := p.Pix[p.Index(-p.Pad, y):][:p.Width+2*p.Pad]
		left, right := row[:p.Pad], row[p.Pad+p.Width:]
		for i := range left {
			left[i] = row[p.Pad]
			right[i] = row[p.Pad+p.Width-1]
		}
	}
	span := p.Width + 2*p.Pad
	top := p.Pix[p.Index(-p.Pad, 0):][:span]
	bottom := p.Pix[p.Index(-p.Pad, p.Height-1):][:span]
	for i := 1; i <= p.Pad; i++ {
		copy(p.Pix[p.Index(-p.Pad, -i):], top)
		copy(p.Pix[p.Index(-p.Pad, p.Height-1+i):], bottom)
	}
}

// Clone returns a deep copy of the plane.
func (p *Plane) Clone() *Plane {
	q := *p
	q.Pix = append([]byte(nil), p.Pix...)
	return &q
}

// Equal reports whether two planes have identical geometry and interior
// pixels (padding is ignored).
func (p *Plane) Equal(q *Plane) bool {
	if p.Width != q.Width || p.Height != q.Height {
		return false
	}
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			if p.At(x, y) != q.At(x, y) {
				return false
			}
		}
	}
	return true
}

// DiffCount returns the number of interior pixels whose absolute difference
// exceeds tol.
func (p *Plane) DiffCount(q *Plane, tol int) int {
	n := 0
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			d := int(p.At(x, y)) - int(q.At(x, y))
			if d < 0 {
				d = -d
			}
			if d > tol {
				n++
			}
		}
	}
	return n
}

// PlanarImage is a set of planes (one per channel) stored consecutively in
// memory, the Photoshop-like layout ("stores the R, G and B planes of a
// color image separately").
type PlanarImage struct {
	Planes []*Plane
}

// NewPlanarImage allocates channels planes of the given geometry.
func NewPlanarImage(width, height, pad, channels int) *PlanarImage {
	img := &PlanarImage{}
	for i := 0; i < channels; i++ {
		img.Planes = append(img.Planes, NewPlane(width, height, pad))
	}
	return img
}

// FillPattern fills every plane with a deterministic pattern.
func (img *PlanarImage) FillPattern(seed uint64) {
	for i, p := range img.Planes {
		p.FillPattern(seed + uint64(i)*7919)
	}
}

// PlaneSize returns the byte size of a single plane buffer.
func (img *PlanarImage) PlaneSize() int {
	p := img.Planes[0]
	return p.Stride * (p.Height + 2*p.Pad)
}

// Bytes concatenates all plane buffers (padding included) in channel order,
// which is exactly how the planar image is laid out in the emulated heap.
func (img *PlanarImage) Bytes() []byte {
	out := make([]byte, 0, img.PlaneSize()*len(img.Planes))
	for _, p := range img.Planes {
		out = append(out, p.Pix...)
	}
	return out
}

// SetBytes overwrites all plane buffers from a concatenated layout produced
// by Bytes.
func (img *PlanarImage) SetBytes(data []byte) {
	sz := img.PlaneSize()
	if len(data) != sz*len(img.Planes) {
		panic(fmt.Sprintf("image: planar byte size mismatch: got %d want %d", len(data), sz*len(img.Planes)))
	}
	for i, p := range img.Planes {
		copy(p.Pix, data[i*sz:(i+1)*sz])
	}
}

// Interleaved is an interleaved multi-channel 8-bit image (RGBRGB...), the
// IrfanView-like layout, with scanlines rounded up to Align bytes.
type Interleaved struct {
	// Width and Height are the extents in pixels; Channels is the number of
	// interleaved samples per pixel.
	Width, Height, Channels int
	// Stride is the distance in bytes between scanline starts.
	Stride int
	// Pix holds Stride*Height bytes.
	Pix []byte
}

// NewInterleaved allocates an interleaved image.
func NewInterleaved(width, height, channels int) *Interleaved {
	if width <= 0 || height <= 0 || channels <= 0 {
		panic(fmt.Sprintf("image: invalid interleaved dimensions %dx%dx%d", width, height, channels))
	}
	stride := (width*channels + Align - 1) / Align * Align
	return &Interleaved{
		Width: width, Height: height, Channels: channels,
		Stride: stride,
		Pix:    make([]byte, stride*height),
	}
}

// Index returns the offset of channel c of pixel (x, y).
func (im *Interleaved) Index(x, y, c int) int {
	return y*im.Stride + x*im.Channels + c
}

// At returns channel c of pixel (x, y).
func (im *Interleaved) At(x, y, c int) byte { return im.Pix[im.Index(x, y, c)] }

// Flat exposes the raw backing for flat-index addressing: channel c of
// pixel (x, y) lives at pix[base + y*stride + x*pixStep + c].
func (im *Interleaved) Flat() (pix []byte, base, stride, pixStep int) {
	return im.Pix, 0, im.Stride, im.Channels
}

// Set stores channel c of pixel (x, y).
func (im *Interleaved) Set(x, y, c int, v byte) { im.Pix[im.Index(x, y, c)] = v }

// FillPattern fills the image with a deterministic pseudo-random pattern,
// drawing samples in row-major order (pixel by pixel, channel by channel).
func (im *Interleaved) FillPattern(seed uint64) {
	r := rng(seed)
	for y := 0; y < im.Height; y++ {
		row := im.Pix[y*im.Stride:][:im.Width*im.Channels]
		for i := range row {
			row[i] = byte(r.next())
		}
	}
}

// Interior returns a copy of the pixel samples in row-major order without
// the alignment padding at the end of each scanline.
func (im *Interleaved) Interior() []byte {
	out := make([]byte, 0, im.Width*im.Height*im.Channels)
	for y := 0; y < im.Height; y++ {
		row := y * im.Stride
		out = append(out, im.Pix[row:row+im.Width*im.Channels]...)
	}
	return out
}

// Clone returns a deep copy of the image.
func (im *Interleaved) Clone() *Interleaved {
	q := *im
	q.Pix = append([]byte(nil), im.Pix...)
	return &q
}

// DiffCount returns the number of samples whose absolute difference
// exceeds tol.
func (im *Interleaved) DiffCount(q *Interleaved, tol int) int {
	n := 0
	for y := 0; y < im.Height; y++ {
		for x := 0; x < im.Width; x++ {
			for c := 0; c < im.Channels; c++ {
				d := int(im.At(x, y, c)) - int(q.At(x, y, c))
				if d < 0 {
					d = -d
				}
				if d > tol {
					n++
				}
			}
		}
	}
	return n
}

// rng is a tiny splitmix64 generator so image content is deterministic and
// independent of math/rand behaviour across Go versions.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
