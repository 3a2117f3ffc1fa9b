package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/pipeline"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// labelWork is the paper's auto-labeling stage: a seeded campaign of
// 256² scenes streams through the pipeline (filter, HSV auto-label,
// tile) on nproc stage workers, with no training.
type labelWork struct {
	o      options
	in     layerInputs
	last   *dataset.Set
	digest [32]byte
}

func newLabelWork(o options) workload { return &labelWork{o: o} }

func (w *labelWork) sizes() (scenes, size int) {
	if w.o.tiny {
		return 2, 64
	}
	return 12, 256
}

func (w *labelWork) setup() (err error) {
	n, size := w.sizes()
	w.in, err = newInputs(w.o.seed, n, size)
	return err
}

func (w *labelWork) inputs() *layerInputs { return &w.in }
func (w *labelWork) close()               {}

func (w *labelWork) iterate(iter int, _ time.Time, tr *tracer, s *runStats) error {
	root := tr.newID()
	clock := newSceneClock(tr, root, iter)
	build := w.in.build
	build.Labeler = clockedLabeler{Labeler: build.Labeler, c: clock}
	retries := 0
	var mem0 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	start := time.Now()
	st, err := pipeline.New(clockedSource{SliceSource: w.in.scenes, c: clock}, pipeline.Config{
		Build:    build,
		Workers:  w.o.nproc,
		Progress: countRetries(&retries),
	})
	if err != nil {
		return err
	}
	set, err := st.Set()
	st.Close()
	end := time.Now()
	s.attempted += len(w.in.scenes)
	if err != nil {
		s.failed += len(w.in.scenes)
		return err
	}
	tr.record(root, 0, "campaign-"+fmt.Sprint(iter), "pipeline.run", start, end)
	wall := end.Sub(start).Seconds()
	s.units += float64(len(w.in.scenes))
	s.workSeconds += wall
	s.rates = append(s.rates, float64(len(w.in.scenes))/wall)
	s.iterS = append(s.iterS, wall)
	s.lat = append(s.lat, clock.lat...)

	d := setDigest(set)
	if w.last != nil && d != w.digest {
		return fmt.Errorf("iteration %d produced different label products than the first iteration", iter)
	}
	w.digest, w.last = d, set

	agree, total := 0, 0
	for _, t := range set.Tiles {
		for i, c := range t.Auto.Pix {
			if c == t.Manual.Pix[i] {
				agree++
			}
		}
		total += len(t.Auto.Pix)
	}
	s.set("scenes_per_s", s.units/s.workSeconds, "scenes/s", "")
	s.set("label_agreement_pct", 100*float64(agree)/float64(total), "%", "auto labels vs scene ground truth")

	if tr != nil {
		var mem1 runtime.MemStats
		runtime.ReadMemStats(&mem1)
		s.addLayer("pipeline.busy_frac", clock.busyMs/1e3/(float64(w.o.nproc)*wall))
		s.addLayer("pipeline.allocs_per_scene", float64(mem1.Mallocs-mem0.Mallocs)/float64(len(w.in.scenes)))
		s.addLayer("pipeline.alloc_kb_per_scene", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/float64(len(w.in.scenes)))
		s.addLayer("pipeline.first_batch_s", clock.first.Sub(start).Seconds())
		s.addLayer("pipeline.retries", float64(retries))
		for _, ms := range clock.labelMs {
			s.addLayer("labeler.label_ms", ms)
		}
	}
	return nil
}

func (w *labelWork) check(*runStats) error {
	return checkLabelProducts(w.last, w.in.scenes, w.in.build, sampleIndices(w.o.seed, len(w.in.scenes), 3))
}

// sampleIndices draws k distinct indices below n from the seed.
func sampleIndices(seed uint64, n, k int) []int {
	r := rand.New(rand.NewPCG(seed, 0x5a3b1e))
	p := r.Perm(n)
	return p[:min(k, n)]
}

// checkLabelProducts replays the sampled scenes serially through
// dataset.LabelScene + TileScene and requires the pipeline's tiles for
// those scenes to be byte-identical.
func checkLabelProducts(set *dataset.Set, scenes []*scene.Scene, build dataset.BuildConfig, sample []int) error {
	if set == nil {
		return fmt.Errorf("label: no product to check")
	}
	byScene := map[int][]dataset.Tile{}
	for _, t := range set.Tiles {
		byScene[t.Scene] = append(byScene[t.Scene], t)
	}
	for _, i := range sample {
		ls, err := dataset.LabelScene(scenes[i], build)
		if err != nil {
			return fmt.Errorf("label: serial replay of scene %d: %w", i, err)
		}
		want, err := dataset.TileScene(ls, i, build)
		if err != nil {
			return fmt.Errorf("label: serial replay of scene %d: %w", i, err)
		}
		got := byScene[i]
		if len(got) != len(want) {
			return fmt.Errorf("label: scene %d has %d tiles, serial replay %d", i, len(got), len(want))
		}
		for k := range want {
			if tileDigest(got[k]) != tileDigest(want[k]) {
				return fmt.Errorf("label: scene %d tile %d differs from the serial replay", i, k)
			}
		}
	}
	return nil
}

// tileDigest hashes every view of a tile.
func tileDigest(t dataset.Tile) [32]byte {
	h := sha256.New()
	h.Write(t.Original.Pix)
	h.Write(t.Filtered.Pix)
	for _, l := range [][]byte{labelBytes(t.Manual.Pix), labelBytes(t.Auto.Pix)} {
		h.Write(l)
	}
	fmt.Fprintf(h, "%d %d %x", t.Scene, len(t.Original.Pix), t.CloudFraction)
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func setDigest(set *dataset.Set) [32]byte {
	var buf bytes.Buffer
	for _, t := range set.Tiles {
		d := tileDigest(t)
		buf.Write(d[:])
	}
	return sha256.Sum256(buf.Bytes())
}

func labelBytes(pix []raster.Class) []byte {
	b := make([]byte, len(pix))
	for i, c := range pix {
		b[i] = byte(c)
	}
	return b
}
