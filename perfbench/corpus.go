package main

import (
	"errors"
	"fmt"
	"io/fs"

	"helium/internal/image"
	"helium/internal/ir"
	"helium/internal/legacy"
	"helium/internal/lift"
	"helium/internal/liftedkernels"
	"helium/internal/schedule"
)

// The lift geometry: the serving default (serve.Options) and the
// geometry `helium run` verifies at.
const (
	liftW, liftH = 40, 24
	liftSeed     = 1
)

// lifted is one corpus kernel lifted and compiled by the benchmark
// itself, plus everything a tier call needs.
type lifted struct {
	name  string
	kern  legacy.Kernel
	res   *lift.Result
	ck    *lift.CompiledResult
	gk    *liftedkernels.Kernel
	sched *schedule.Schedule // serve's compiled rung schedule; nil means EvalAt
	geo   geometry
}

// target wraps an instance as a lift target, the way serve and the CLI do.
func target(inst *legacy.Instance) lift.Target {
	return lift.Target{
		Prog:  inst.Prog,
		Setup: inst.Setup,
		Known: lift.KnownInput{
			Width:       inst.Width,
			Height:      inst.Height,
			Channels:    inst.Channels,
			Interleaved: inst.Interleaved,
			Interior:    inst.InputInterior,
		},
	}
}

// loadSchedules reads the committed tuned schedule set.  Unlike heliumd,
// the benchmark keeps a set tuned on another machine class: it times the
// same schedule on every machine, so runs stay comparable.
func loadSchedules(path string) (*schedule.Set, error) {
	set, err := schedule.Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return set, err
}

// liftCorpus lifts and compiles every corpus kernel sequentially at the
// lift geometry.  It is the eval tiers' set-up and the serve oracle's
// source of interpreter references.
func liftCorpus(scheds *schedule.Set) ([]*lifted, error) {
	var out []*lifted
	for _, k := range legacy.Kernels() {
		inst := k.Instantiate(legacy.Config{Width: liftW, Height: liftH, Seed: liftSeed})
		res, err := lift.Lift(k.Name, target(inst))
		if err != nil {
			return nil, fmt.Errorf("lift %s: %w", k.Name, err)
		}
		ck, err := res.Compile()
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", k.Name, err)
		}
		gk, ok := liftedkernels.Lookup(k.Name)
		if !ok {
			return nil, fmt.Errorf("kernel %s has no generated form", k.Name)
		}
		out = append(out, &lifted{
			name: k.Name, kern: k, res: res, ck: ck, gk: gk,
			sched: scheds.For(k.Name), geo: newGeometry(res),
		})
	}
	return out, nil
}

// verifyCorpus checks every lifted kernel against the binary's own
// output on the interpreter and the compiled paths.
func verifyCorpus(ls []*lifted) error {
	for _, l := range ls {
		if err := l.res.Verify(); err != nil {
			return fmt.Errorf("verify %s: %w", l.name, err)
		}
		if _, err := l.res.VerifyCompiled(0); err != nil {
			return fmt.Errorf("verify compiled %s: %w", l.name, err)
		}
	}
	return nil
}

// geometry maps a request geometry (the extents `helium run -width
// -height` and heliumd's width/height take) to eval extents.  It is
// derived from the lifted result alone, the way serve derives its own:
// eval extents are rational in the request extents with the slope read
// off the final stage's index map and the offset calibrated at lift
// geometry.
type geometry struct {
	mulW, divW, offW int
	mulH, divH, offH int
	channels         int // samples per eval point: final stencil channels, 1 for a reduction domain
}

func newGeometry(res *lift.Result) geometry {
	w0, h0 := res.EvalDims()
	var mx, my ir.AxisMap
	g := geometry{channels: 1}
	if res.Kernel != nil {
		mx, my = res.Kernel.MapX, res.Kernel.MapY
		g.channels = res.Kernel.Channels
	}
	nx, dx, _ := mx.Norm()
	ny, dy, _ := my.Norm()
	g.mulW, g.divW, g.mulH, g.divH = dx, nx, dy, ny
	g.offW = w0 - liftW*g.mulW/g.divW
	g.offH = h0 - liftH*g.mulH/g.divH
	return g
}

// evalDims returns the eval extents of a request geometry.
func (g geometry) evalDims(w, h int) (int, int) {
	return w*g.mulW/g.divW + g.offW, h*g.mulH/g.divH + g.offH
}

// input is one evaluator input in both forms the tiers read: an ir.Source
// for the interpreter and compiled tiers, a flat liftedkernels.Image for
// the generated tier.  Both alias one pixel backing.
type input struct {
	src   ir.Source
	img   liftedkernels.Image
	bytes int // backing size, for bandwidth figures
}

// buildInput lays a row-major interior of iw x ih pixels into the
// backing the lifted kernel reads at eval extents (outW, outH): a plane
// clamp-padded to cover the first stage's input footprint, or an
// interleaved image for interleaved kernels (whose footprint must stay
// inside the interior).
func buildInput(res *lift.Result, interior []byte, iw, ih, outW, outH int) (*input, error) {
	ch, inter := res.Bufs.In.Channels, res.Bufs.In.Interleaved
	if iw < 1 || ih < 1 || len(interior) != iw*ih*ch {
		return nil, fmt.Errorf("interior is %d bytes, want %dx%dx%d", len(interior), iw, ih, ch)
	}
	xlo, xhi, ylo, yhi := res.InputFootprint(outW, outH)
	if inter {
		if xlo < 0 || ylo < 0 || xhi >= iw || yhi >= ih {
			return nil, fmt.Errorf("interleaved footprint [%d,%d]x[%d,%d] escapes the %dx%d interior", xlo, xhi, ylo, yhi, iw, ih)
		}
		im := image.NewInterleaved(iw, ih, ch)
		row := iw * ch
		for y := 0; y < ih; y++ {
			copy(im.Pix[y*im.Stride:], interior[y*row:(y+1)*row])
		}
		pix, base, stride, step := im.Flat()
		return &input{
			src:   ir.InterleavedSource{Im: im},
			img:   liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: step, ChanStep: 1},
			bytes: len(im.Pix),
		}, nil
	}
	if ch != 1 {
		return nil, fmt.Errorf("planar input has %d channels", ch)
	}
	p := image.NewPlane(iw, ih, max(0, -xlo, -ylo, xhi-(iw-1), yhi-(ih-1)))
	p.SetInterior(interior)
	p.PadEdges()
	pix, base, stride := p.Flat()
	return &input{
		src:   ir.PlaneSource{P: p},
		img:   liftedkernels.Image{Pix: pix, Base: base, Stride: stride, PixStep: 1},
		bytes: len(p.Pix),
	}, nil
}

// footprintInterior is the interior extent a seeded input needs for eval
// extents (outW, outH): it reaches the footprint's far corner, and the
// plane padding covers taps left of or above the origin.
func footprintInterior(res *lift.Result, outW, outH int) (iw, ih int) {
	_, xhi, _, yhi := res.InputFootprint(outW, outH)
	return max(xhi+1, 1), max(yhi+1, 1)
}

// genSerial runs the generated tier the way serve's per-request fast
// path does: the schedule-baked serial Kernel.Tuned when the generator
// emitted one, else EvalInto with Workers forced to 1.  EvalTunedInto
// is not used: it turns Workers 0 into GOMAXPROCS workers.
func genSerial(gk *liftedkernels.Kernel, sc *liftedkernels.Scratch, img *liftedkernels.Image, w, h int) ([]byte, error) {
	if gk.Tuned != nil {
		return gk.Tuned(sc, img, w, h)
	}
	return genWorkers(gk, sc, img, w, h, 1)
}

// genWorkers runs the generated tier's strip/tile executors at n workers.
func genWorkers(gk *liftedkernels.Kernel, sc *liftedkernels.Scratch, img *liftedkernels.Image, w, h, n int) ([]byte, error) {
	spec := gk.Sched
	spec.Workers = n
	return gk.EvalInto(sc, img, w, h, spec)
}

// compiled runs serve's compiled rung: the register-program chain under
// the kernel's tuned schedule, or the serial chain without one.
func (l *lifted) compiled(src ir.Source, w, h int) ([]byte, error) {
	if l.sched != nil {
		return l.ck.EvalScheduledAt(src, w, h, l.sched)
	}
	return l.ck.EvalAt(src, w, h)
}

// hasRegisterForm reports whether every stage lowered to register
// programs; reductions have none, so their compiled rung is not timed.
func (l *lifted) hasRegisterForm() bool {
	for _, st := range l.ck.Stages {
		if st == nil {
			return false
		}
	}
	return true
}

// interp runs the tree interpreter, the reference every tier is checked
// against.  A panic inside evaluation is returned as an error.
func (l *lifted) interp(src ir.Source, w, h int) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("interp %s panicked: %v", l.name, p)
		}
	}()
	return l.res.EvalIRAt(src, w, h)
}

// splitmix is a seeded splitmix64 generator: the benchmark's only source
// of randomness, so one seed fixes every input and every request order.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn is a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// fill writes seeded bytes.
func (s *splitmix) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := s.next()
		for j := i; j < len(b) && j < i+8; j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// shuffle permutes n items in place through swap (Fisher-Yates).
func (s *splitmix) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.intn(i+1))
	}
}

// derive mixes a label into a seed, giving independent streams.
func derive(seed uint64, label uint64) uint64 {
	s := splitmix(seed ^ (label * 0xd1b54a32d192ed03))
	return s.next()
}
