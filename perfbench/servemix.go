package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"helium/internal/legacy"
	"helium/internal/liftedkernels"
	"helium/internal/schedule"
	"helium/internal/serve"
)

// serveClients is the closed loop's client count: one per CPU of the
// 2-CPU reference machine, each waiting for its reply before sending on.
const serveClients = 2

// serveClass is one (kernel, geometry, method) request class.
type serveClass struct {
	kernel  string
	w, h    int // request geometry
	geo     string
	post    bool
	url     string
	body    []byte // POST body: the pattern input interior
	iw, ih  int    // the interior's extents
	want    *[]byte
	samples int
	l       *lifted
	lat     []time.Duration // the last window's latencies
}

// postsPerGet is the request mix: 3 POSTs for every pattern-mode GET.
const postsPerGet = 3

// pick draws request i of a seeded sequence over n (kernel, geometry)
// pairs: the pair and whether it is a POST or a pattern-mode GET.  The
// sequence is a run of blocks; each block sends every pair
// postsPerGet+1 times, once as a GET, in a seeded order.  Complete
// blocks therefore carry the same mix on every seed, so the seed moves
// the order, not the amount of work.  Request i depends only on
// (seed, i), so both clients draw from one sequence however they
// interleave.
func pick(seed, i uint64, n int) (pair int, post bool) {
	per := uint64(postsPerGet + 1)
	size := uint64(n) * per
	block, slot := i/size, i%size
	rng := splitmix(derive(seed, block+1))
	perm := make([]uint64, size)
	for j := range perm {
		perm[j] = uint64(j)
	}
	rng.shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	v := perm[slot]
	return int(v / per), v%per != 0
}

// blockLen is the length of one balanced block of the request sequence.
func blockLen(pairs int) uint64 { return uint64(pairs * (postsPerGet + 1)) }

// serveMix prepares the serve-mix workload: heliumd's server in-process
// on loopback, driven by a closed loop of serveClients over every corpus
// kernel at three geometries, mostly POSTs with client pixels, a quarter
// pattern-mode GETs.  Set-up is serve.New plus Warm.
func serveMix(r *run) (*workload, error) {
	scheds, err := loadSchedules("schedules.json")
	if err != nil {
		return nil, err
	}
	if !scheds.MatchesMachine(schedule.HostMachineKey()) {
		scheds = nil // heliumd's policy: never execute another machine's tuning
	}
	opts := serve.Options{Schedules: scheds}
	w := &workload{}
	setups := 3
	if r.probe {
		setups = 1
	}
	var s *serve.Server
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s = serve.New(opts)
		s.Warm()
		w.setups = append(w.setups, time.Since(t0))
	}

	classes, err := serveOracle(r, s)
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	transport := &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}
	client := &http.Client{Transport: transport}
	base := "http://" + ln.Addr().String()
	w.close = func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fmt.Printf("serve shutdown: %v\n", err)
		}
		<-served
		transport.CloseIdleConnections()
	}
	for _, c := range classes {
		c.url = base + c.url
	}
	if err := waitReady(client, base+"/readyz"); err != nil {
		w.close()
		return nil, err
	}

	// Warm-up: every class twice, checked like any other request.
	cl := &serveClient{http: client}
	for rep := 0; rep < 2; rep++ {
		for _, c := range classes {
			o := cl.do(c, nil, 0)
			r.check(o.ok, "warm-up %s %s: %s", c.kernel, c.geo, o.why)
		}
	}

	// The last window's client figures and /metrics delta, for layers.
	var last struct {
		delta             scrape
		write, ttfb, read time.Duration
		traced            int
		total             time.Duration
		n                 int
		postLat, getLat   []time.Duration
	}
	var seq atomic.Uint64

	w.loop = func(window time.Duration) (*e2e, error) {
		for _, c := range classes {
			c.lat = c.lat[:0]
		}
		before, err := fetchMetrics(client, base+"/metrics")
		if err != nil {
			return nil, err
		}
		clients := make([]*serveClient, serveClients)
		// The window ends on a block boundary: once it has run its
		// length, the first index past the deadline rounds up to the
		// end of its block, and every index below that still runs.
		pairs := len(classes) / 2
		bl := blockLen(pairs)
		first := (seq.Load() + bl - 1) / bl * bl
		seq.Store(first)
		var limit atomic.Uint64
		limit.Store(^uint64(0))
		var wg sync.WaitGroup
		start := time.Now()
		for i := range clients {
			clients[i] = &serveClient{http: client, status: map[int]int{}, byClass: map[*serveClass][]time.Duration{}}
			wg.Add(1)
			go func(c *serveClient) {
				defer wg.Done()
				for {
					i := seq.Add(1) - 1
					if time.Since(start) >= window {
						end := (i-first+bl-1)/bl*bl + first
						for cur := limit.Load(); end < cur && !limit.CompareAndSwap(cur, end); cur = limit.Load() {
						}
					}
					if i >= limit.Load() {
						return
					}
					pi, post := pick(r.seed, i, pairs)
					cls := classes[2*pi]
					if post {
						cls = classes[2*pi+1]
					}
					c.run(cls, r.tr, i)
				}
			}(clients[i])
		}
		wg.Wait()
		wall := time.Since(start)
		after, err := fetchMetrics(client, base+"/metrics")
		if err != nil {
			return nil, err
		}
		d := after.delta(before)

		res := &e2e{tailQ: 0.99, wall: wall}
		status := map[int]int{}
		last.write, last.ttfb, last.read, last.traced, last.total, last.n = 0, 0, 0, 0, 0, 0
		last.postLat, last.getLat = nil, nil
		attempted, failed := 0, 0
		for _, c := range clients {
			for k, v := range c.status {
				status[k] += v
			}
			attempted += c.attempted
			failed += c.failed
			for cls, lat := range c.byClass {
				cls.lat = append(cls.lat, lat...)
			}
			res.lat = append(res.lat, c.lat...)
			last.postLat = append(last.postLat, c.postLat...)
			last.getLat = append(last.getLat, c.getLat...)
			last.write += c.write
			last.ttfb += c.ttfb
			last.read += c.read
			last.traced += c.traced
		}
		r.tally(attempted, failed)
		res.ops = len(res.lat)
		for _, l := range res.lat {
			last.total += l
		}
		last.n = len(res.lat)
		last.delta = d
		reconcile(r, d, status, attempted)

		for _, c := range classes {
			if len(c.lat) > 0 {
				res.classNs = append(res.classNs, nsPerSample(newDist(c.lat).median(), c.samples))
			}
		}
		lat, post, get := newDist(res.lat), newDist(last.postLat), newDist(last.getLat)
		p99 := lat.quantile(0.99)
		res.named = []namedFigure{
			{"req_per_s", "1/s", float64(res.ops) / wall.Seconds(), res.ops, fmt.Sprintf(" over %.2fs, %d clients", wall.Seconds(), serveClients)},
			{"latency_p50_ms", "ms", lat.median(), len(lat), ""},
			{"latency_p99_ms", "ms", p99, len(lat), fmt.Sprintf(", %d beyond", lat.beyond(0.99))},
			{"post_p50_ms", "ms", post.median(), len(post), ""},
			{"get_p50_ms", "ms", get.median(), len(get), ""},
		}
		return res, nil
	}

	w.layers = func() error {
		d := last.delta
		queue := d.histMeanMS("helium_queue_wait_seconds")
		exec := d.histMeanMS("helium_execute_seconds")
		gen := d.histMeanMS("helium_backend_seconds", `backend="generated"`)
		r.setLayer("serve.queue_wait_ms", queue)
		r.setLayer("serve.execute_ms", exec)
		r.setLayer("liftedkernels.eval_ms", gen)
		r.setLayer("serve.nonexec_ms", exec-gen)
		n := float64(max(last.n, 1))
		r.setLayer("serve.http_ms", float64(last.total)/n/1e6-queue-exec)
		tn := float64(max(last.traced, 1))
		r.setLayer("serve.client_write_ms", float64(last.write)/tn/1e6)
		r.setLayer("serve.ttfb_ms", float64(last.ttfb)/tn/1e6)
		r.setLayer("serve.client_read_ms", float64(last.read)/tn/1e6)
		r.setLayer("serve.post_p50_ms", newDist(last.postLat).median())
		r.setLayer("serve.get_p50_ms", newDist(last.getLat).median())
		r.setLayer("serve.requests", d.sum("helium_requests_total"))
		r.setLayer("serve.shed", d.sum("helium_shed_total"))
		r.setLayer("serve.limited", d.sum("helium_limited_total"))
		r.setLayer("serve.degraded", d.sum("helium_degraded_total"))
		r.setLayer("serve.timeouts", d.sum("helium_timeouts_total"))
		r.setLayer("serve.fallback_attempts", fallbackAttempts(d))
		return replay(r, classes)
	}
	return w, nil
}

// fallbackAttempts counts backend attempts below the generated head of
// the degradation chain.
func fallbackAttempts(d scrape) float64 {
	n := 0.0
	for _, be := range []string{"compiled", "interp", "vm"} {
		n += d.sum("helium_backend_attempts_total", `backend="`+be+`"`)
	}
	return n
}

// reconcile checks the client's view of one window against the server's
// /metrics delta: 200s, sheds (503), limits (429) and timeouts (504) must
// agree exactly, and no request may have fallen back below the generated
// backend.  A disagreement fails the run.
func reconcile(r *run, d scrape, status map[int]int, attempted int) {
	pairs := []struct {
		what   string
		server float64
		client int
	}{
		{"200s", d.sum("helium_requests_total", `status="200"`), status[200]},
		{"requests", d.sum("helium_requests_total"), attempted - status[-1]},
		{"sheds (503)", d.sum("helium_shed_total"), status[503]},
		{"limits (429)", d.sum("helium_limited_total"), status[429]},
		{"timeouts (504)", d.sum("helium_timeouts_total"), status[504]},
	}
	for _, p := range pairs {
		if p.server != float64(p.client) {
			r.breakRun("reconcile: /metrics counts %.0f %s, the client saw %d", p.server, p.what, p.client)
		}
	}
	if n := fallbackAttempts(d); n != 0 {
		r.breakRun("fallback guard: %.0f backend attempts fell below the generated backend", n)
	}
}

// serveOracle builds every request class with its expected bytes, before
// anything is timed.  The expected output of a (kernel, geometry) comes
// from a path independent of the served one: the vm re-emulation of the
// binary (Server.Reference) at 256x192, and the tree interpreter on the
// benchmark's own lift at the larger geometries.  At 256x192 both are
// computed and must agree, which also checks the benchmark's geometry
// model.  A GET and a POST of one pair share one pattern seed, so they
// share one expected output.
func serveOracle(r *run, s *serve.Server) ([]*serveClass, error) {
	ls, err := r.lifts()
	if err != nil {
		return nil, err
	}
	patternSeed := patternSeed(r.seed)
	classes := make([]*serveClass, 0, 2*len(ls)*len(requestGeometries))
	for _, l := range ls {
		for _, g := range requestGeometries {
			want := new([]byte)
			for _, post := range []bool{false, true} {
				classes = append(classes, &serveClass{
					kernel: l.name, w: g[0], h: g[1], geo: geoName(g[0], g[1]), post: post,
					url:  fmt.Sprintf("/v1/eval?kernel=%s&width=%d&height=%d&seed=%d", l.name, g[0], g[1], patternSeed),
					want: want, l: l,
				})
			}
		}
	}
	// One worker per kernel row keeps each lifted result on one
	// goroutine; two workers match the machine.
	jobs := make(chan int)
	var wg sync.WaitGroup
	errs := make([]error, len(ls))
	for wk := 0; wk < serveClients; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := range jobs {
				errs[li] = oracleKernel(r, s, classes[li*2*len(requestGeometries):(li+1)*2*len(requestGeometries)], patternSeed)
			}
		}()
	}
	for li := range ls {
		jobs <- li
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return classes, nil
}

// oracleKernel fills one kernel's classes (GET, POST per geometry).
func oracleKernel(r *run, s *serve.Server, cls []*serveClass, patternSeed uint64) error {
	for i := 0; i < len(cls); i += 2 {
		get, post := cls[i], cls[i+1]
		l, gw, gh := get.l, get.w, get.h
		inst := l.kern.Instantiate(legacy.Config{Width: gw, Height: gh, Seed: patternSeed})
		n, err := s.InputSpec(l.name, gw, gh)
		if err != nil {
			return fmt.Errorf("input spec %s %s: %w", l.name, get.geo, err)
		}
		if n != len(inst.InputInterior) {
			return fmt.Errorf("%s %s: server wants %d input bytes, the instance has %d", l.name, get.geo, n, len(inst.InputInterior))
		}
		ow, oh := l.geo.evalDims(gw, gh)
		in, err := buildInput(l.res, inst.InputInterior, inst.Width, inst.Height, ow, oh)
		if err != nil {
			return fmt.Errorf("%s %s: %w", l.name, get.geo, err)
		}
		want, err := l.interp(in.src, ow, oh)
		if err != nil {
			return fmt.Errorf("%s %s interp reference: %w", l.name, get.geo, err)
		}
		if i == 0 {
			vm, err := s.Reference(l.name, gw, gh, patternSeed)
			if err != nil {
				return fmt.Errorf("%s %s vm reference: %w", l.name, get.geo, err)
			}
			r.check(bytes.Equal(vm, want), "%s %s: interpreter reference differs from the vm's", l.name, get.geo)
			want = vm
		}
		*get.want = want
		post.body = inst.InputInterior
		get.iw, get.ih = inst.Width, inst.Height
		post.iw, post.ih = inst.Width, inst.Height
		get.samples = evalSamples(ow, oh, l.geo.channels)
		post.samples = get.samples
	}
	return nil
}

// patternSeed is the one pattern seed every request of a run uses, so a
// GET and a POST of one (kernel, geometry) have one expected output.
func patternSeed(seed uint64) uint64 { return derive(seed, 0x5eed) }

// geoName renders a geometry as WxH.
func geoName(w, h int) string { return fmt.Sprintf("%dx%d", w, h) }

// waitReady polls /readyz until the server reports ready.
func waitReady(c *http.Client, url string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("server at %s never became ready", url)
}

// serveClient is one closed-loop client and its tallies.
type serveClient struct {
	http              *http.Client
	buf               bytes.Buffer
	status            map[int]int // -1 counts transport errors
	attempted, failed int
	lat               []time.Duration
	byClass           map[*serveClass][]time.Duration
	postLat, getLat   []time.Duration
	// httptrace sums over traced requests.
	write, ttfb, read time.Duration
	traced            int
}

// outcome is one request's result.
type outcome struct {
	status int // -1 for a transport error
	ok     bool
	why    string
	lat    time.Duration
	write  time.Duration // request start to request fully written
	ttfb   time.Duration // written to first response byte
	read   time.Duration // first byte to body fully read
}

// run sends one timed request and tallies it.
func (c *serveClient) run(cls *serveClass, tr *tracer, id uint64) {
	o := c.do(cls, tr, id)
	c.attempted++
	c.status[o.status]++
	if !o.ok {
		c.failed++
		if c.failed <= 5 {
			fmt.Printf("request %s %s post=%v failed: %s\n", cls.kernel, cls.geo, cls.post, o.why)
		}
	}
	c.lat = append(c.lat, o.lat)
	c.byClass[cls] = append(c.byClass[cls], o.lat)
	if cls.post {
		c.postLat = append(c.postLat, o.lat)
	} else {
		c.getLat = append(c.getLat, o.lat)
	}
	if tr != nil {
		c.write += o.write
		c.ttfb += o.ttfb
		c.read += o.read
		c.traced++
	}
}

// do sends one request and checks the reply byte for byte.  With a
// tracer it records the request span and its httptrace children.
func (c *serveClient) do(cls *serveClass, tr *tracer, id uint64) outcome {
	var body io.Reader
	method := http.MethodGet
	if cls.post {
		method, body = http.MethodPost, bytes.NewReader(cls.body)
	}
	req, err := http.NewRequest(method, cls.url, body)
	if err != nil {
		return outcome{status: -1, why: err.Error()}
	}
	var wrote, first time.Time
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return outcome{status: -1, why: err.Error(), lat: time.Since(t0)}
	}
	c.buf.Reset()
	_, rerr := c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	o := outcome{status: resp.StatusCode, lat: end.Sub(t0)}
	switch {
	case rerr != nil:
		o.status, o.why = -1, rerr.Error()
	case resp.StatusCode != http.StatusOK:
		o.why = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	case !bytes.Equal(c.buf.Bytes(), *cls.want):
		o.why = fmt.Sprintf("%d response bytes differ from the %d expected", c.buf.Len(), len(*cls.want))
	default:
		o.ok = true
	}
	if tr != nil && !wrote.IsZero() && !first.IsZero() {
		o.write, o.ttfb, o.read = wrote.Sub(t0), first.Sub(wrote), end.Sub(first)
		top := tr.open("serve.request", 0, id, t0)
		tr.add("http.write", top, id, t0, wrote)
		tr.add("http.wait", top, id, wrote, first)
		tr.add("http.read", top, id, first, end)
		tr.close(top, end)
	}
	return o
}

// replay re-runs every request class in-process through the layers a
// request crosses — pattern instantiation (GET only), input build and the
// generated serial eval — each under its own span, for the legacy and
// image per-layer figures.
func replay(r *run, classes []*serveClass) error {
	reps := 3
	if r.probe {
		reps = 1
	}
	inst := map[string][]float64{}
	var build []float64
	scratch := map[*lifted]*liftedkernels.Scratch{}
	for _, c := range classes {
		sc := scratch[c.l]
		if sc == nil {
			sc = new(liftedkernels.Scratch)
			scratch[c.l] = sc
		}
		ow, oh := c.l.geo.evalDims(c.w, c.h)
		var insts, builds []float64
		for rep := 0; rep < reps; rep++ {
			id := uint64(rep)
			top := r.tr.open("replay."+map[bool]string{false: "get", true: "post"}[c.post], 0, id, time.Now())
			interior := c.body
			if !c.post {
				t0 := time.Now()
				in := c.l.kern.Instantiate(legacy.Config{Width: c.w, Height: c.h, Seed: patternSeed(r.seed)})
				d := time.Since(t0)
				r.tr.add("legacy.instantiate", top, id, t0, t0.Add(d))
				insts = append(insts, float64(d)/1e6)
				interior = in.InputInterior
			}
			t0 := time.Now()
			in, err := buildInput(c.l.res, interior, c.iw, c.ih, ow, oh)
			d := time.Since(t0)
			r.tr.add("image.build", top, id, t0, t0.Add(d))
			builds = append(builds, float64(d)/1e6)
			if err != nil {
				r.check(false, "replay %s %s: %v", c.kernel, c.geo, err)
				r.tr.close(top, time.Now())
				continue
			}
			t0 = time.Now()
			out, err := genSerial(c.l.gk, sc, &in.img, ow, oh)
			end := time.Now()
			r.tr.add("liftedkernels.eval", top, id, t0, end)
			r.tr.close(top, end)
			r.check(err == nil && bytes.Equal(out, *c.want), "replay %s %s post=%v: err=%v", c.kernel, c.geo, c.post, err)
		}
		if !c.post {
			inst[c.geo] = append(inst[c.geo], medianOf(insts))
		}
		build = append(build, medianOf(builds))
	}
	for _, g := range requestGeometries {
		name := geoName(g[0], g[1])
		r.setLayer("legacy.instantiate_"+name+"_ms", mean(inst[name]))
	}
	r.setLayer("image.input_build_ms", mean(build))
	return nil
}
