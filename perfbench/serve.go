package main

import (
	"bytes"
	"fmt"
	"image/png"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seaice/internal/core"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/serve"
	"seaice/internal/unet"
)

// sessionLen is how many scenes the client sends in one session; a
// session's wall time is serve's time_to_result_s.
const sessionLen = 16

// serveWork is the user-facing path: one closed-loop client POSTs
// unique PNG scenes (half 128², half 256²) to serve.NewServer over
// loopback HTTP and reads back label-map PNGs. It sends its next scene
// only after the previous answer arrived, in sessions of sessionLen
// scenes, until the measured phase ends. The server's nproc workers
// still split each request's tiles between them. One client, not one
// per core: with two, each request's latency depended on where the
// other client's request stood, and on a shared 2-vCPU host ten-seed
// sets spread by up to 28% of their median.
type serveWork struct {
	o  options
	in layerInputs // the base scenes the requests are cut from

	pool  [][]byte // unique PNG scenes, sent in a cycle
	large []bool   // whether pool[i] is a large scene
	next  int      // next session to send, counted across cycles
	model *unet.Model[float32]
	eng   *clockedEngine
	cfg   serve.Config
	srv   *serve.Server
	hs    *http.Server
	done  chan struct{} // closed when hs.Serve has returned
	url   string
	cl    *http.Client

	mu     sync.Mutex
	bodies map[int][]byte // response of every request, by pool index
	served []int          // pool indices answered in the last phase
}

func newServeWork(o options) workload { return &serveWork{o: o} }

// poolSessions is how many sessions of unique scenes set-up encodes.
// The client sends them in a cycle, so the pool never runs out however
// fast the server gets. A scene comes round again only after the other
// sessions have sent more than twice the server's tile-cache capacity
// of distinct tiles, so the LRU has evicted its tiles and the cache
// never answers a request. A smoke-scale run sends one session per
// phase and never wraps.
func (w *serveWork) poolSessions(small, large int) int {
	if w.o.tiny {
		return 2
	}
	perSession := sessionLen / 2 * ((small/tileSize)*(small/tileSize) + (large/tileSize)*(large/tileSize))
	return (2*w.cfg.CacheSize+perSession-1)/perSession + 1
}

func (w *serveWork) setup() error {
	w.close()
	small, large, bases := 128, 256, 4
	if w.o.tiny {
		small, large, bases = 32, 64, 2
	}
	w.cfg = serve.DefaultConfig()
	w.cfg.TileSize = tileSize
	w.cfg.Workers = w.o.nproc
	var scenes []*scene.Scene
	var genMs []float64
	for k, size := range []int{small, large} {
		sc, ms, err := genCampaign(w.o.seed+uint64(k)<<32, bases, size)
		if err != nil {
			return err
		}
		scenes, genMs = append(scenes, sc...), append(genMs, ms...)
	}
	build, err := newBuild(w.o.seed)
	if err != nil {
		return err
	}
	w.in = layerInputs{scenes: scenes, build: build, genMs: genMs}
	if w.pool, w.large, err = uniqueScenes(w.o.seed, scenes, w.poolSessions(small, large)*sessionLen); err != nil {
		return err
	}
	w.next = 0
	w.bodies = map[int][]byte{}

	if w.model, err = unet.New[float32](unet.FastConfig(1)); err != nil {
		return err
	}
	w.eng = newClockedEngine(w.model, "serve.forward")
	reg := serve.NewRegistry()
	if err := reg.Add("f32", w.eng); err != nil {
		return err
	}
	if w.srv, err = serve.NewServer(w.cfg, reg); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		w.srv = nil
		return err
	}
	w.url = "http://" + ln.Addr().String() + "/classify"
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.done = make(chan struct{})
	go func() {
		defer close(w.done)
		w.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	w.cl = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	return nil
}

// close stops the HTTP server, waits for it, and stops the inference
// pool.
func (w *serveWork) close() {
	if w.hs != nil {
		w.hs.Close()
		<-w.done
		w.hs = nil
	}
	if w.cl != nil {
		w.cl.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func (w *serveWork) inputs() *layerInputs { return &w.in }

// uniqueScenes cuts n request scenes from the base scenes (the first
// half small, the second half large) and reports which are large: each
// is a base scene circularly shifted by a distinct offset that is not a
// multiple of the tile size, so no tile of one request repeats in
// another. Half of each session's scenes are large, in a seeded order.
// No record of real request sizes exists, so the two sizes get equal
// shares, and the latency percentiles are taken per size.
func uniqueScenes(seed uint64, bases []*scene.Scene, n int) ([][]byte, []bool, error) {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	half := len(bases) / 2
	large := make([]bool, n)
	for b := 0; b < n; b += sessionLen {
		blk := large[b:min(b+sessionLen, n)]
		for i := range len(blk) / 2 {
			blk[i] = true
		}
		r.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
	}
	// Clients compress for speed, as an uploader would.
	enc := png.Encoder{CompressionLevel: png.BestSpeed}
	used := map[[3]int]bool{}
	out := make([][]byte, n)
	for i := range out {
		var key [3]int
		for {
			b := r.IntN(half)
			if large[i] {
				b += half
			}
			key = [3]int{b, 1 + r.IntN(tileSize-1), 1 + r.IntN(tileSize-1)}
			if !used[key] {
				break
			}
		}
		used[key] = true
		img := shifted(bases[key[0]].Image, key[1], key[2])
		var buf bytes.Buffer
		if err := enc.Encode(&buf, img.ToImage()); err != nil {
			return nil, nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, large, nil
}

// shifted returns img circularly shifted by (dx, dy) pixels.
func shifted(img *raster.RGB, dx, dy int) *raster.RGB {
	out := raster.NewRGB(img.W, img.H)
	for y := range img.H {
		src := ((y + dy) % img.H) * img.W
		row := out.Pix[3*y*img.W : 3*(y+1)*img.W]
		k := 3 * (src + dx)
		n := copy(row, img.Pix[k:3*(src+img.W)])
		copy(row[n:], img.Pix[3*src:k])
	}
	return out
}

// iterate runs the whole measured phase: the client sends sessions back
// to back until the deadline.
func (w *serveWork) iterate(iter int, deadline time.Time, tr *tracer, s *runStats) error {
	if iter == 0 {
		w.mu.Lock()
		w.served = nil
		w.mu.Unlock()
		w.eng.reset()
	}
	w.eng.setTracer(tr)
	defer w.eng.setTracer(nil)
	var mem0, mem1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	start := time.Now()
	c := w.client(deadline, tr)
	wall := time.Since(start).Seconds()
	small := c.lat[0]
	n := len(c.lat[0]) + len(c.lat[1])
	s.lat = append(s.lat, c.lat[1]...)
	s.iterS = append(s.iterS, c.sessions...)
	for _, sec := range c.sessions {
		s.rates = append(s.rates, sessionLen/sec)
	}
	s.attempted += c.attempted
	s.failed += c.attempted - n
	if c.err != nil {
		return c.err
	}
	if len(s.iterS) == 0 {
		return fmt.Errorf("serve: no session completed")
	}
	s.units += float64(n)
	s.workSeconds += wall
	s.latOf = "256² requests"
	s.set("scenes_per_s", s.units/s.workSeconds, "scenes/s", "one closed-loop client")
	s.set("latency_p50_ms_128px", percentile(small, 50), "ms", fmt.Sprintf("128² requests, n=%d samples", len(small)))
	s.set("latency_p90_ms_128px", percentile(small, 90), "ms", fmt.Sprintf("128² requests, n=%d samples", len(small)))

	if tr != nil {
		runtime.ReadMemStats(&mem1)
		s.addLayer("serve.allocs_per_scene", float64(mem1.Mallocs-mem0.Mallocs)/float64(n))
		s.addLayer("serve.alloc_kb_per_scene", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/float64(n))
		s.addLayer("serve.cache_hit_ratio", w.srv.Stats().CacheHitRate)
	}
	return nil
}

// clientStats is the closed-loop client's record of a phase.
type clientStats struct {
	lat       [2][]float64 // ms per request, small scenes then large
	sessions  []float64    // s per completed session
	attempted int
	err       error
}

// client sends sessions, their scenes one at a time, until the deadline
// passes.
func (w *serveWork) client(deadline time.Time, tr *tracer) clientStats {
	var c clientStats
	for time.Now().Before(deadline) || len(c.sessions) == 0 {
		k := w.next
		w.next++
		first := k % (len(w.pool) / sessionLen) * sessionLen
		root := tr.newID()
		start := time.Now()
		for i := first; i < first+sessionLen; i++ {
			c.attempted++
			ms, err := w.request(tr, root, i)
			if err != nil {
				c.err = err
				return c
			}
			size := 0
			if w.large[i] {
				size = 1
			}
			c.lat[size] = append(c.lat[size], ms)
		}
		end := time.Now()
		tr.record(root, 0, "session-"+strconv.Itoa(k), "serve.session", start, end)
		c.sessions = append(c.sessions, end.Sub(start).Seconds())
	}
	return c
}

// request sends scene i and returns its latency in ms.
func (w *serveWork) request(tr *tracer, parent int64, i int) (float64, error) {
	start := time.Now()
	resp, err := w.cl.Post(w.url, "image/png", bytes.NewReader(w.pool[i]))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("serve: request %d: HTTP %d: %s", i, resp.StatusCode, bytes.TrimSpace(body))
	}
	tr.add(parent, "req-"+strconv.Itoa(i), "serve.request", start, end)
	w.mu.Lock()
	w.bodies[i] = body
	w.served = append(w.served, i)
	w.mu.Unlock()
	return float64(end.Sub(start)) / 1e6, nil
}

func (w *serveWork) check(*runStats) error {
	return checkServed(w.model, w.cfg, w.pool, w.bodies, w.checkSample())
}

// checkSample draws the requests of the last phase whose responses are
// checked.
func (w *serveWork) checkSample() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var sample []int
	for _, k := range sampleIndices(w.o.seed, len(w.served), 4) {
		sample = append(sample, w.served[k])
	}
	return sample
}

// checkServed requires each sampled response to be byte-identical to
// offline core.Inference with the same engine on the same PNG.
func checkServed(model unet.Engine, cfg serve.Config, pool [][]byte, bodies map[int][]byte, sample []int) error {
	if len(sample) == 0 {
		return fmt.Errorf("serve: no responses to check")
	}
	for _, i := range sample {
		decoded, err := png.Decode(bytes.NewReader(pool[i]))
		if err != nil {
			return fmt.Errorf("serve: decode scene %d: %w", i, err)
		}
		want, err := core.Inference(model, raster.FromImage(decoded), cfg.TileSize, cfg.Build)
		if err != nil {
			return fmt.Errorf("serve: offline inference of scene %d: %w", i, err)
		}
		var buf bytes.Buffer
		if err := want.Render().EncodePNG(&buf); err != nil {
			return err
		}
		if !bytes.Equal(bodies[i], buf.Bytes()) {
			return fmt.Errorf("serve: response to scene %d differs from offline core.Inference", i)
		}
	}
	return nil
}

// clockedEngine is the unet.Engine registered with the server: the f32
// model, whose predictors (unet.Sessions) are timed per batch and per
// layer while a tracer is set. span names each batch's span.
type clockedEngine struct {
	inner *unet.Model[float32]
	span  string
	tr    atomic.Pointer[tracer]

	mu      sync.Mutex
	calls   int
	tiles   int
	busyMs  float64
	batches atomic.Int64
	layerMs map[string]float64 // per stage, summed over tiles
	layerN  map[string]int
}

func newClockedEngine(m *unet.Model[float32], span string) *clockedEngine {
	e := &clockedEngine{inner: m, span: span}
	e.reset()
	return e
}

func (e *clockedEngine) Config() unet.Config  { return e.inner.Config() }
func (e *clockedEngine) Precision() string    { return e.inner.Precision() }
func (e *clockedEngine) setTracer(tr *tracer) { e.tr.Store(tr) }

func (e *clockedEngine) NewPredictor() unet.Predictor {
	p := &clockedPredictor{inner: e.inner.NewPredictor(), e: e}
	if sess, ok := p.inner.(*unet.Session[float32]); ok {
		sess.SetObserver(p.observe)
	}
	return p
}

func (e *clockedEngine) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.calls, e.tiles, e.busyMs = 0, 0, 0
	e.layerMs, e.layerN = map[string]float64{}, map[string]int{}
}

func (e *clockedEngine) totals() (calls, tiles int, busyMs float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls, e.tiles, e.busyMs
}

// layerTimes returns the mean time per tile of each observed stage, in
// ms.
func (e *clockedEngine) layerTimes() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := map[string]float64{}
	for k, v := range e.layerMs {
		out[k] = v / float64(e.layerN[k])
	}
	return out
}

// clockedPredictor wraps one worker's session. Stage times come from
// the session observer: each stage is charged the time since the
// previous stage's activation (or since the call began), and "final"
// the time from the last observed stage to the call's return.
type clockedPredictor struct {
	inner unet.Predictor
	e     *clockedEngine

	tr    *tracer
	id    int64
	trace string
	last  time.Time
	stage map[string]float64
}

func (p *clockedPredictor) PredictTiles(tiles []*raster.RGB) ([]*raster.Labels, error) {
	tr := p.e.tr.Load()
	if tr == nil {
		return p.inner.PredictTiles(tiles)
	}
	p.tr, p.id = tr, tr.newID()
	p.trace = "batch-" + strconv.FormatInt(p.e.batches.Add(1), 10)
	p.stage = map[string]float64{}
	start := time.Now()
	p.last = start
	out, err := p.inner.PredictTiles(tiles)
	p.observe("final", nil)
	end := time.Now()
	tr.record(p.id, 0, p.trace, p.e.span, start, end)
	p.tr = nil

	e := p.e
	e.mu.Lock()
	e.calls++
	e.tiles += len(tiles)
	e.busyMs += float64(end.Sub(start)) / 1e6
	for k, v := range p.stage {
		e.layerMs[k] += v
		e.layerN[k] += len(tiles)
	}
	e.mu.Unlock()
	return out, err
}

func (p *clockedPredictor) observe(stage string, _ []float32) {
	if p.tr == nil {
		return
	}
	now := time.Now()
	p.tr.add(p.id, p.trace, "unet."+stage, p.last, now)
	p.stage[stage] += float64(now.Sub(p.last)) / 1e6
	p.last = now
}
