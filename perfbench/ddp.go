package main

import (
	"fmt"
	"strconv"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/pipeline"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// ddpReplicas is the in-process data-parallel width: two replicas joined
// by the ring all-reduce, the paper's Horovod path (Table III).
const ddpReplicas = 2

// ddpWork labels its samples during set-up and measures distributed
// training alone: ddp.New[float32] with two replicas (f32 with float64
// master weights, the same global batch as train), then evaluation.
type ddpWork struct {
	o       options
	z       trainSize
	in      layerInputs
	samples []train.Sample
	test    []dataset.Tile
	model   *unet.Model[float32]
	ref     []float64 // per-epoch losses of the first iteration
}

func newDDPWork(o options) workload { return &ddpWork{o: o, z: trainSizes(o.tiny)} }

func (w *ddpWork) setup() (err error) {
	if w.in, err = newInputs(w.o.seed, w.z.scenes, w.z.size); err != nil {
		return err
	}
	st, err := pipeline.New(pipeline.SliceSource(w.in.scenes), pipeline.Config{
		Build: w.in.build, Workers: w.o.nproc, Plan: trainPlan(w.o.seed, w.z),
	})
	if err != nil {
		return err
	}
	defer st.Close()
	if w.samples, err = st.TrainSamples(); err != nil {
		return err
	}
	if w.test, err = st.TestTiles(); err != nil {
		return err
	}
	return nil
}

func (w *ddpWork) inputs() *layerInputs { return &w.in }
func (w *ddpWork) close()               {}

// stepsPerEpoch is the number of global steps one epoch takes.
func (w *ddpWork) stepsPerEpoch() int { return (len(w.samples) + globalBatch - 1) / globalBatch }

func (w *ddpWork) iterate(iter int, _ time.Time, tr *tracer, s *runStats) error {
	root := tr.newID()
	trace := "ddp-" + strconv.Itoa(iter)
	start := time.Now()
	epochStart := start
	t, err := ddp.New[float32](unet.FastConfig(w.o.seed), ddp.Config{
		Workers: ddpReplicas, BatchPerWorker: globalBatch / ddpReplicas,
		Epochs: w.z.epochs, LR: learnRate, Seed: w.o.seed, MasterWeights: true,
		Progress: func(epoch int, _ float64) {
			now := time.Now()
			tr.add(root, trace, "ddp.epoch", epochStart, now)
			epochStart = now
		},
	})
	if err != nil {
		return err
	}
	fitStart := time.Now()
	res, err := t.Fit(w.samples)
	fitEnd := time.Now()
	steps := w.z.epochs * w.stepsPerEpoch()
	s.attempted += steps
	if err != nil {
		s.failed++
		return fmt.Errorf("ddp: %w", err)
	}
	model := t.Replica(0)
	evalStart := time.Now()
	conf, err := train.Evaluate(model, dataset.Samples(w.test, dataset.FilteredImages, dataset.ManualLabels))
	if err != nil {
		return fmt.Errorf("ddp: evaluate: %w", err)
	}
	end := time.Now()
	tr.add(root, trace, "train.eval", evalStart, end)
	tr.record(root, 0, trace, "ddp.run", start, end)

	fit := fitEnd.Sub(fitStart).Seconds()
	losses := make([]float64, len(res.Epochs))
	for e, ep := range res.Epochs {
		losses[e] = ep.Loss
		s.lat = append(s.lat, ep.RealSeconds*1e3/float64(w.stepsPerEpoch()))
	}
	s.units += float64(len(w.samples) * w.z.epochs)
	s.workSeconds += fit
	s.rates = append(s.rates, float64(len(w.samples)*w.z.epochs)/fit)
	s.iterS = append(s.iterS, end.Sub(start).Seconds())
	s.losses = append(s.losses, losses)
	w.model = model
	s.set("train_tiles_per_s", s.units/s.workSeconds, "tiles/s", "fit phase only")
	s.set("time_to_model_s", median(s.iterS), "s", "trainer start to evaluated model")
	s.set("accuracy_pct", 100*conf.Accuracy(), "%", fmt.Sprintf("%d held-out tiles vs manual labels", len(w.test)))
	s.set("final_loss", losses[len(losses)-1], "1", "last-epoch mean loss, rank 0")

	if tr != nil {
		s.addLayer("ddp.step_ms", fit*1e3/float64(steps))
		s.addLayer("train.eval_ms_per_tile", float64(end.Sub(evalStart))/1e6/float64(len(w.test)))
	}
	return nil
}

func (w *ddpWork) check(s *runStats) error { return checkLosses(s, &w.ref) }

// w1StepMs trains one epoch with a single replica at the same global
// batch — the W=1 baseline of the data-parallel speed-up — and returns
// its mean step time.
func (w *ddpWork) w1StepMs() (float64, error) {
	t, err := ddp.New[float32](unet.FastConfig(w.o.seed), ddp.Config{
		Workers: 1, BatchPerWorker: globalBatch, Epochs: 1, LR: learnRate, Seed: w.o.seed, MasterWeights: true,
	})
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := t.Fit(w.samples); err != nil {
		return 0, err
	}
	return msSince(start) / float64(w.stepsPerEpoch()), nil
}
