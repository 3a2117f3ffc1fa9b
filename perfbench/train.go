package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/pipeline"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// trainSize fixes the training problem shared by train and ddp, so the
// two are comparable: same scenes, tiles, global batch and epochs.
type trainSize struct {
	scenes, size          int
	trainTiles, testTiles int
	epochs                int
}

func trainSizes(tiny bool) trainSize {
	if tiny {
		return trainSize{scenes: 2, size: 64, trainTiles: 8, testTiles: 4, epochs: 1}
	}
	return trainSize{scenes: 4, size: 256, trainTiles: 128, testTiles: 32, epochs: 4}
}

const (
	globalBatch = 8
	learnRate   = 0.01
)

// trainPlan is the seaice-train default plumbing: 80/20 split, auto
// labels on original imagery, capped train and test subsets.
func trainPlan(seed uint64, z trainSize) *pipeline.TrainPlan {
	return &pipeline.TrainPlan{
		TrainFrac: 0.8, SplitSeed: seed,
		TrainTiles: z.trainTiles, TrainSeed: seed,
		TestTiles: z.testTiles, TestSeed: seed + 1,
		Image: dataset.OriginalImages, Labels: dataset.AutoLabels,
		BatchSize: globalBatch, BatchSeed: seed,
	}
}

// trainWork is the default seaice-train path, measured as time to a
// trained model: scenes stream through the pipeline with a TrainPlan,
// pipeline.TrainBatchesOf[float32] feeds train.FitStream (f32 with
// float64 master weights), and train.Evaluate scores held-out filtered
// tiles against manual labels.
type trainWork struct {
	o     options
	z     trainSize
	in    layerInputs
	model *unet.Model[float32] // the last trained model
	ref   []float64            // per-epoch losses of the first iteration
}

func newTrainWork(o options) workload { return &trainWork{o: o, z: trainSizes(o.tiny)} }

func (w *trainWork) setup() (err error) {
	w.in, err = newInputs(w.o.seed, w.z.scenes, w.z.size)
	return err
}

func (w *trainWork) inputs() *layerInputs { return &w.in }
func (w *trainWork) close()               {}

func (w *trainWork) iterate(iter int, _ time.Time, tr *tracer, s *runStats) error {
	root := tr.newID()
	rootTrace := "fit-" + strconv.Itoa(iter)
	clock := newSceneClock(tr, root, iter)
	build := w.in.build
	build.Labeler = clockedLabeler{Labeler: build.Labeler, c: clock}

	retries := 0
	start := time.Now()
	st, err := pipeline.New(clockedSource{SliceSource: w.in.scenes, c: clock}, pipeline.Config{
		Build:    build,
		Workers:  w.o.nproc,
		Plan:     trainPlan(w.o.seed, w.z),
		Progress: countRetries(&retries),
	})
	if err != nil {
		return err
	}
	defer st.Close()
	inner, err := pipeline.TrainBatchesOf[float32](st)
	if err != nil {
		return err
	}
	batches := &batchClock{inner: inner, tr: tr, parent: root, iter: iter}
	model, err := unet.New[float32](unet.FastConfig(w.o.seed))
	if err != nil {
		return err
	}
	var mem0, mem1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&mem0)
	}
	fitStart := time.Now()
	res, err := train.FitStream(model, batches, train.Config{
		Epochs: w.z.epochs, BatchSize: globalBatch, LR: learnRate, Seed: w.o.seed, MasterWeights: true,
	})
	fitEnd := time.Now()
	if tr != nil {
		runtime.ReadMemStats(&mem1)
	}
	s.attempted += batches.steps
	if err != nil {
		s.failed++
		return fmt.Errorf("train: %w", err)
	}
	evalStart := time.Now()
	test, err := st.TestTiles()
	if err != nil {
		return err
	}
	conf, err := train.Evaluate(model, dataset.Samples(test, dataset.FilteredImages, dataset.ManualLabels))
	if err != nil {
		return fmt.Errorf("train: evaluate: %w", err)
	}
	end := time.Now()
	tr.add(root, rootTrace, "train.eval", evalStart, end)
	tr.record(root, 0, rootTrace, "train.run", start, end)

	nTrain, err := st.TrainLen()
	if err != nil {
		return err
	}
	fit := fitEnd.Sub(fitStart).Seconds()
	s.units += float64(nTrain * w.z.epochs)
	s.workSeconds += fit
	s.rates = append(s.rates, float64(nTrain*w.z.epochs)/fit)
	s.iterS = append(s.iterS, end.Sub(start).Seconds())
	s.lat = append(s.lat, batches.stepMs...)
	s.losses = append(s.losses, res.EpochLosses)
	w.model = model
	s.set("train_tiles_per_s", s.units/s.workSeconds, "tiles/s", "fit phase only")
	s.set("time_to_model_s", median(s.iterS), "s", "stream start to evaluated model")
	s.set("accuracy_pct", 100*conf.Accuracy(), "%", fmt.Sprintf("%d held-out tiles vs manual labels", len(test)))
	s.set("final_loss", res.EpochLosses[len(res.EpochLosses)-1], "1", "last-epoch mean loss")

	if tr != nil {
		steps := float64(batches.steps)
		s.addLayer("train.data_wait_frac", batches.waitMs/1e3/fit)
		for _, ms := range batches.computeMs {
			s.addLayer("train.step_ms", ms)
		}
		s.addLayer("train.allocs_per_step", float64(mem1.Mallocs-mem0.Mallocs)/steps)
		s.addLayer("train.alloc_kb_per_step", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1024/steps)
		s.addLayer("train.eval_ms_per_tile", float64(end.Sub(evalStart))/1e6/float64(len(test)))
		s.addLayer("pipeline.first_batch_s", batches.first.Sub(start).Seconds())
		s.addLayer("pipeline.busy_frac", clock.busyMs/1e3/(float64(w.o.nproc)*end.Sub(start).Seconds()))
		s.addLayer("pipeline.retries", float64(retries))
		for _, ms := range clock.labelMs {
			s.addLayer("labeler.label_ms", ms)
		}
	}
	return nil
}

func (w *trainWork) check(s *runStats) error { return checkLosses(s, &w.ref) }

// checkLosses requires every loss of the phase to be finite and every
// iteration to have trained to the same per-epoch losses, bit for bit,
// as the first iteration of the run (*ref, set on first use) — so the
// traced run must reproduce the untraced run's training exactly.
func checkLosses(s *runStats, ref *[]float64) error {
	if len(s.losses) == 0 {
		return fmt.Errorf("no training losses recorded")
	}
	if *ref == nil {
		*ref = s.losses[0]
	}
	for i, ls := range s.losses {
		if len(ls) != len(*ref) {
			return fmt.Errorf("iteration %d: %d epochs, first iteration %d", i, len(ls), len(*ref))
		}
		for e, l := range ls {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("iteration %d epoch %d: non-finite loss %v", i, e, l)
			}
			if math.Float64bits(l) != math.Float64bits((*ref)[e]) {
				return fmt.Errorf("iteration %d epoch %d: loss %v, first iteration %v", i, e, l, (*ref)[e])
			}
		}
	}
	return nil
}

// batchClock is the train.BatchSource handed to FitStream: it times how
// long the trainer waits for each batch and how long each step computes
// before asking for the next.
type batchClock struct {
	inner  train.BatchSource[float32]
	tr     *tracer
	parent int64
	iter   int

	steps     int
	waitMs    float64
	computeMs []float64
	stepMs    []float64 // wait for the batch + compute, per step
	first     time.Time
	lastRet   time.Time
	lastWait  float64
}

func (b *batchClock) Epoch(epoch int) func() (*train.PackedBatch[float32], error) {
	next := b.inner.Epoch(epoch)
	return func() (*train.PackedBatch[float32], error) {
		call := time.Now()
		if !b.lastRet.IsZero() {
			compute := float64(call.Sub(b.lastRet)) / 1e6
			b.computeMs = append(b.computeMs, compute)
			b.stepMs = append(b.stepMs, b.lastWait+compute)
			b.tr.add(b.parent, b.trace(), "train.step", b.lastRet, call)
		}
		pb, err := next()
		ret := time.Now()
		b.lastWait = float64(ret.Sub(call)) / 1e6
		b.waitMs += b.lastWait
		b.lastRet = time.Time{}
		if pb != nil {
			b.steps++
			b.tr.add(b.parent, b.trace(), "train.wait", call, ret)
			b.lastRet = ret
			if b.first.IsZero() {
				b.first = ret
			}
		}
		return pb, err
	}
}

func (b *batchClock) trace() string {
	return "step-" + strconv.Itoa(b.iter) + "-" + strconv.Itoa(b.steps)
}
