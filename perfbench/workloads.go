package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/labeler"
	"seaice/internal/pipeline"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// workload is one benchmark scenario.
type workload interface {
	// setup (re)builds every input from the seed; the previous set-up's
	// resources are released first.
	setup() error
	// iterate runs one whole iteration of the measured path, adding its
	// figures to s. tr is nil in the untraced run.
	iterate(iter int, deadline time.Time, tr *tracer, s *runStats) error
	// check verifies the outputs of the measured phase s, including
	// that they equal what earlier phases (the untraced run) computed.
	check(s *runStats) error
	// inputs exposes the scenes the workload was set up with, for the
	// per-layer replays.
	inputs() *layerInputs
	// close releases whatever set-up started (servers, goroutines).
	close()
}

var workloads = map[string]func(options) workload{
	"label": newLabelWork,
	"train": newTrainWork,
	"serve": newServeWork,
	"ddp":   newDDPWork,
}

// workloadNames lists the workloads in the order the documentation uses.
var workloadNames = []string{"label", "train", "serve", "ddp"}

// tileSize is the tile edge every workload uses (and the served tile).
const tileSize = 32

// layerInputs are the seeded inputs the per-layer replays run on.
type layerInputs struct {
	scenes []*scene.Scene
	build  dataset.BuildConfig
	// genMs is the time each scene took to generate during set-up.
	genMs []float64
}

// newInputs generates the first n scenes of the seeded campaign at size²
// with the shared build configuration.
func newInputs(seed uint64, n, size int) (layerInputs, error) {
	scenes, ms, err := genCampaign(seed, n, size)
	if err != nil {
		return layerInputs{}, err
	}
	build, err := newBuild(seed)
	return layerInputs{scenes: scenes, build: build, genMs: ms}, err
}

// countRetries is a pipeline Progress callback counting retried scenes.
func countRetries(n *int) func(pipeline.Event) {
	return func(ev pipeline.Event) {
		if ev.Kind == "retry" {
			*n++
		}
	}
}

// genCampaign renders the first n scenes of the seeded campaign at
// size², timing each.
func genCampaign(seed uint64, n, size int) ([]*scene.Scene, []float64, error) {
	cc := scene.DefaultCollection(seed)
	cc.Scenes = n
	cc.W, cc.H = size, size
	scenes := make([]*scene.Scene, n)
	ms := make([]float64, n)
	for i := range scenes {
		start := time.Now()
		sc, err := scene.GenerateAt(cc, i)
		if err != nil {
			return nil, nil, fmt.Errorf("generate scene %d: %w", i, err)
		}
		ms[i] = msSince(start)
		scenes[i] = sc
	}
	return scenes, ms, nil
}

// newBuild is the filter/label/tile configuration every workload uses:
// the default build at the served tile size with the paper's HSV
// labeler.
func newBuild(seed uint64) (dataset.BuildConfig, error) {
	b := dataset.DefaultBuild()
	b.TileSize = tileSize
	eng, err := labeler.Parse("hsv", seed)
	if err != nil {
		return b, err
	}
	b.Labeler = eng
	return b, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// sceneClock pairs the two pipeline seams the benchmark controls — the
// Source's SceneAt and the Labeler's Label — into one span per scene.
// The pipeline calls both on the same stage-worker goroutine, one scene
// at a time, so the goroutine identifies the scene being labeled.
type sceneClock struct {
	tr     *tracer
	parent int64
	iter   int

	mu      sync.Mutex
	open    map[uint64]openScene
	lat     []float64 // ms from SceneAt to labels, per scene
	labelMs []float64
	busyMs  float64
	first   time.Time // first scene labeled
}

type openScene struct {
	index int
	id    int64 // reserved span id of the scene
	start time.Time
}

func newSceneClock(tr *tracer, parent int64, iter int) *sceneClock {
	return &sceneClock{tr: tr, parent: parent, iter: iter, open: map[uint64]openScene{}}
}

// clockedSource is the benchmark's pipeline.Source: pre-generated
// scenes, with each fetch opening the scene's span.
type clockedSource struct {
	pipeline.SliceSource
	c *sceneClock
}

func (s clockedSource) SceneAt(i int) (*scene.Scene, error) {
	start := time.Now()
	sc, err := s.SliceSource.SceneAt(i)
	id := s.c.tr.newID()
	s.c.tr.add(id, s.c.trace(i), "scene.fetch", start, time.Now())
	s.c.mu.Lock()
	s.c.open[goid()] = openScene{index: i, id: id, start: start}
	s.c.mu.Unlock()
	return sc, err
}

func (c *sceneClock) trace(i int) string {
	return "scene-" + strconv.Itoa(c.iter) + "-" + strconv.Itoa(i)
}

// clockedLabeler is the Labeler in the benchmark's BuildConfig: it
// times each call and closes the scene's span.
type clockedLabeler struct {
	labeler.Labeler
	c *sceneClock
}

func (l clockedLabeler) Label(img *raster.RGB) (*raster.Labels, error) {
	start := time.Now()
	out, err := l.Labeler.Label(img)
	end := time.Now()
	c := l.c
	c.mu.Lock()
	g := goid()
	sc, ok := c.open[g]
	delete(c.open, g)
	c.labelMs = append(c.labelMs, float64(end.Sub(start))/1e6)
	if ok {
		c.lat = append(c.lat, float64(end.Sub(sc.start))/1e6)
		c.busyMs += float64(end.Sub(sc.start)) / 1e6
	}
	if c.first.IsZero() {
		c.first = end
	}
	c.mu.Unlock()
	if ok {
		c.tr.add(sc.id, c.trace(sc.index), "labeler.label", start, end)
		c.tr.record(sc.id, c.parent, c.trace(sc.index), "pipeline.scene", sc.start, end)
	}
	return out, err
}

// goid returns the calling goroutine's id, parsed from the header line
// of its stack trace ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	f := bytes.Fields(bytes.TrimPrefix(buf[:n], []byte("goroutine ")))
	if len(f) == 0 {
		return 0
	}
	id, _ := strconv.ParseUint(string(f[0]), 10, 64)
	return id
}
