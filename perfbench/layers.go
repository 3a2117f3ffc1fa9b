package main

import (
	"bytes"
	"fmt"
	"image/png"
	"strings"
	"time"

	"seaice/internal/core"
	"seaice/internal/dataset"
	"seaice/internal/nn"
	"seaice/internal/raster"
	"seaice/internal/ring"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// unetStages are the activations a FastConfig session reports to its
// observer, plus "final" (the 1×1 head, argmax and unpacking).
var unetStages = []string{
	"enc0.conv1", "enc0.conv2", "enc1.conv1", "enc1.conv2", "enc2.conv1", "enc2.conv2",
	"bottleneck.conv1", "bottleneck.conv2",
	"up2", "dec2.conv1", "dec2.conv2", "up1", "dec1.conv1", "dec1.conv2", "up0", "dec0.conv1", "dec0.conv2",
	"final",
}

// perLayerMetrics is every metric a traced run reports, in BENCHMARK.json
// order.
var perLayerMetrics = func() []layerMetric {
	m := []layerMetric{
		{"scene.generate_ms", "ms"},
		{"cloudfilter.filter_ms", "ms"},
		{"labeler.label_ms", "ms"},
		{"dataset.tile_ms", "ms"},
		{"pipeline.busy_frac", "fraction"},
		{"pipeline.allocs_per_scene", "count"},
		{"pipeline.alloc_kb_per_scene", "KiB"},
		{"pipeline.first_batch_s", "s"},
		{"pipeline.retries", "count"},
		{"train.data_wait_frac", "fraction"},
		{"train.step_ms_p50", "ms"},
		{"train.step_ms_p90", "ms"},
		{"train.allocs_per_step", "count"},
		{"train.alloc_kb_per_step", "KiB"},
		{"train.eval_ms_per_tile", "ms"},
		{"unet.forward_ms", "ms"},
		{"unet.backward_ms", "ms"},
		{"nn.adam_ms", "ms"},
		{"unet.train_gflops", "GFLOP/s"},
		{"unet.train_step_gflop_computed", "GFLOP"},
		{"unet.tile_mflop_computed", "MFLOP"},
	}
	for _, s := range unetStages {
		m = append(m, layerMetric{"unet.layer_ms." + s, "ms"})
	}
	return append(m, []layerMetric{
		{"serve.forward_ms_per_tile", "ms"},
		{"serve.batch_tiles_mean", "count"},
		{"serve.forward_busy_frac", "fraction"},
		{"serve.cache_hit_ratio", "fraction"},
		{"serve.allocs_per_scene", "count"},
		{"serve.alloc_kb_per_scene", "KiB"},
		{"raster.png_decode_ms", "ms"},
		{"raster.png_encode_ms", "ms"},
		{"ddp.step_ms", "ms"},
		{"ddp.w1_step_ms", "ms"},
		{"ring.allreduce_ms", "ms"},
		{"ring.bytes_per_step", "bytes"},
		{"ddp.allreduce_frac", "fraction"},
		{"trace.overhead_frac", "fraction"},
	}...)
}()

// perLayer assembles the per-layer metrics of a traced run and says,
// for each, where its value came from ("computed" for the analytic
// counts). Three sources, in order of precedence:
//
//  1. "run": the workload's own seams during the traced run (its
//     runStats);
//  2. "replay": replays of each layer's public functions on the
//     workload's own seeded inputs (the "ledger", recorded as spans of
//     trace "replay");
//  3. "smoke:<workload>": for seams this workload never drives (a label
//     run has no serving batches, no trainer and no ring), a traced
//     smoke-scale run of the workload that does, on the same seed. These
//     values come from tiny inputs, not from this workload, and are
//     marked so in the report and the summary.
func perLayer(w workload, o options, tr *tracer, plain, traced *runStats) (map[string]float64, map[string]string, error) {
	out, err := ledger(w, o, tr)
	if err != nil {
		return nil, nil, err
	}
	src := map[string]string{}
	for k := range out {
		src[k] = "replay"
	}
	for _, k := range []string{"unet.train_step_gflop_computed", "unet.tile_mflop_computed", "ring.bytes_per_step"} {
		src[k] = "computed"
	}
	own, err := ownLayers(w, traced)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range own {
		out[k], src[k] = v, "run"
	}
	for _, other := range workloadNames {
		if other == o.workload || !missing(out, owners[other]) {
			continue
		}
		so := o
		so.workload, so.tiny, so.seconds = other, true, 0
		m, err := smokeLayers(so)
		if err != nil {
			return nil, nil, fmt.Errorf("smoke-scale %s run: %w", other, err)
		}
		for k, v := range m {
			if _, ok := out[k]; !ok {
				out[k], src[k] = v, "smoke:"+other
			}
		}
	}
	if _, ok := out["ddp.allreduce_frac"]; !ok {
		out["ddp.allreduce_frac"] = out["ring.allreduce_ms"] / out["ddp.step_ms"]
		src["ddp.allreduce_frac"] = "replay÷" + src["ddp.step_ms"]
	}
	plainUnit := plain.workSeconds / plain.units
	tracedUnit := traced.workSeconds / traced.units
	out["trace.overhead_frac"] = tracedUnit/plainUnit - 1
	src["trace.overhead_frac"] = "run"
	return out, src, nil
}

// owners lists, per workload, the metric-name prefixes its own seams
// measure.
var owners = map[string][]string{
	"label": {"pipeline."},
	"train": {"pipeline.", "train."},
	"serve": {"serve."},
	"ddp":   {"ddp.step_ms", "ddp.w1_step_ms"},
}

// missing reports whether any per-layer metric with one of the prefixes
// is still unmeasured.
func missing(m map[string]float64, prefixes []string) bool {
	for _, d := range perLayerMetrics {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				if _, ok := m[d.name]; !ok {
					return true
				}
			}
		}
	}
	return false
}

// smokeLayers runs a workload at smoke scale with tracing on, checks its
// outputs, and returns the metrics its own seams measured.
func smokeLayers(o options) (map[string]float64, error) {
	w := workloads[o.workload](o)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, err
	}
	s, err := measure(w, o.seconds, newTracer())
	if err != nil {
		return nil, err
	}
	if err := w.check(s); err != nil {
		return nil, err
	}
	return ownLayers(w, s)
}

// ownLayers reduces the samples a workload's seams recorded to metrics.
func ownLayers(w workload, s *runStats) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range s.layer {
		if k == "train.step_ms" {
			out["train.step_ms_p50"] = percentile(v, 50)
			out["train.step_ms_p90"] = percentile(v, 90)
			continue
		}
		out[k] = median(v)
	}
	switch w := w.(type) {
	case *serveWork:
		calls, tiles, busyMs := w.eng.totals()
		out["serve.forward_ms_per_tile"] = busyMs / float64(tiles)
		out["serve.batch_tiles_mean"] = float64(tiles) / float64(calls)
		out["serve.forward_busy_frac"] = busyMs / 1e3 / (float64(w.cfg.Workers) * s.workSeconds)
		for k, v := range w.eng.layerTimes() {
			out["unet.layer_ms."+k] = v
		}
	case *ddpWork:
		ms, err := w.w1StepMs()
		if err != nil {
			return nil, fmt.Errorf("ddp W=1 baseline: %w", err)
		}
		out["ddp.w1_step_ms"] = ms
	}
	return out, nil
}

// modelOf returns the model a workload trained or serves, if any.
func modelOf(w workload) *unet.Model[float32] {
	switch w := w.(type) {
	case *trainWork:
		return w.model
	case *ddpWork:
		return w.model
	case *serveWork:
		return w.model
	}
	return nil
}

// ledger replays every layer's public functions on a seeded sample of
// the workload's own inputs and times them.
func ledger(w workload, o options, tr *tracer) (map[string]float64, error) {
	in := w.inputs()
	reps := 5
	if o.tiny {
		reps = 2
	}
	out := map[string]float64{"scene.generate_ms": median(in.genMs)}
	timed := func(name string, fn func() error) (float64, error) {
		start := time.Now()
		err := fn()
		end := time.Now()
		tr.add(0, "replay", name, start, end)
		return float64(end.Sub(start)) / 1e6, err
	}

	var filterMs, labelMs, tileMs, decMs, encMs []float64
	var tiles []dataset.Tile
	for _, i := range sampleIndices(o.seed, len(in.scenes), 3) {
		sc := in.scenes[i]
		var filtered *raster.RGB
		ms, _ := timed("cloudfilter.filter", func() error { filtered = core.FilterScene(sc.Image, in.build); return nil })
		filterMs = append(filterMs, ms)
		var auto *raster.Labels
		ms, err := timed("labeler.label", func() (err error) { auto, err = in.build.ActiveLabeler().Label(filtered); return err })
		if err != nil {
			return nil, err
		}
		labelMs = append(labelMs, ms)
		ls := &dataset.LabeledScene{Scene: sc, Filtered: filtered, Auto: auto}
		var ts []dataset.Tile
		ms, err = timed("dataset.tile", func() (err error) { ts, err = dataset.TileScene(ls, i, in.build); return err })
		if err != nil {
			return nil, err
		}
		tileMs = append(tileMs, ms)
		tiles = append(tiles, ts...)

		var scenePNG bytes.Buffer
		if err := sc.Image.EncodePNG(&scenePNG); err != nil {
			return nil, err
		}
		ms, err = timed("raster.png_decode", func() error {
			img, err := png.Decode(bytes.NewReader(scenePNG.Bytes()))
			if err == nil {
				raster.FromImage(img)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		decMs = append(decMs, ms)
		var labelPNG bytes.Buffer
		ms, err = timed("raster.png_encode", func() error { return auto.Render().EncodePNG(&labelPNG) })
		if err != nil {
			return nil, err
		}
		encMs = append(encMs, ms)
	}
	out["cloudfilter.filter_ms"] = median(filterMs)
	out["labeler.label_ms"] = median(labelMs)
	out["dataset.tile_ms"] = median(tileMs)
	out["raster.png_decode_ms"] = median(decMs)
	out["raster.png_encode_ms"] = median(encMs)

	cfg := unet.FastConfig(o.seed)
	src := modelOf(w)
	if src == nil {
		var err error
		if src, err = unet.New[float32](cfg); err != nil {
			return nil, err
		}
	}
	clone, err := unet.New[float32](cfg)
	if err != nil {
		return nil, err
	}
	if err := clone.CopyWeightsFrom(src); err != nil {
		return nil, err
	}
	batch := tiles[:min(globalBatch, len(tiles))]
	x, labels, err := train.ToTensor[float32](dataset.Samples(batch, dataset.OriginalImages, dataset.AutoLabels))
	if err != nil {
		return nil, err
	}
	crit := &nn.SoftmaxCrossEntropy[float32]{}
	opt := nn.NewAdam[float32](learnRate)
	opt.Master = true
	params := clone.Params()
	var fwdMs, bwdMs, adamMs []float64
	for r := range reps + 1 { // the first repetition warms buffers and Adam state
		nn.ZeroGrads(params)
		var logits *tensor.Tensor[float32]
		f, _ := timed("unet.forward", func() error { logits = clone.Forward(x, true); return nil })
		if _, err := crit.Loss(logits, labels); err != nil {
			return nil, err
		}
		b, _ := timed("unet.backward", func() error { clone.Backward(crit.Grad()); return nil })
		a, _ := timed("nn.adam", func() error { opt.Step(params); return nil })
		if r > 0 {
			fwdMs, bwdMs, adamMs = append(fwdMs, f), append(bwdMs, b), append(adamMs, a)
		}
	}
	out["unet.forward_ms"] = median(fwdMs)
	out["unet.backward_ms"] = median(bwdMs)
	out["nn.adam_ms"] = median(adamMs)
	stepFLOPs := 3 * float64(len(batch)) * forwardFLOPs(cfg, tileSize, tileSize)
	out["unet.train_step_gflop_computed"] = stepFLOPs / 1e9
	out["unet.tile_mflop_computed"] = forwardFLOPs(cfg, tileSize, tileSize) / 1e6
	out["unet.train_gflops"] = stepFLOPs / 1e9 / ((out["unet.forward_ms"] + out["unet.backward_ms"]) / 1e3)

	// Per-stage forward times through a session observer, on up to 16
	// tiles of the workload's scenes.
	eng := newClockedEngine(src, "unet.session")
	eng.setTracer(tr)
	pred := eng.NewPredictor()
	imgs := make([]*raster.RGB, 0, 16)
	for _, t := range tiles[:min(16, len(tiles))] {
		imgs = append(imgs, t.Original)
	}
	for range reps {
		if _, err := pred.PredictTiles(imgs); err != nil {
			return nil, err
		}
	}
	for k, v := range eng.layerTimes() {
		out["unet.layer_ms."+k] = v
	}

	// The ring all-reduce of one flattened f32 gradient per replica.
	n := src.NumParams()
	var arMs []float64
	for range reps {
		vecs := make([][]float32, ddpReplicas)
		for r := range vecs {
			vecs[r] = make([]float32, n)
			for i := range vecs[r] {
				vecs[r][i] = float32(r+1) * 1e-3
			}
		}
		ms, err := timed("ring.allreduce", func() error { return ring.AllReduceMeanChunked(vecs, ring.DefaultChunk) })
		if err != nil {
			return nil, err
		}
		arMs = append(arMs, ms)
	}
	out["ring.allreduce_ms"] = median(arMs)
	// A ring all-reduce sends 2(W−1)/W of the vector from every rank.
	out["ring.bytes_per_step"] = 2 * float64(ddpReplicas-1) / float64(ddpReplicas) * float64(n) * 4
	return out, nil
}

// forwardFLOPs counts the multiply-adds (×2) of one forward pass of a
// U-Net built from c on an h×w input — computed, not measured.
func forwardFLOPs(c unet.Config, h, w int) float64 {
	var f float64
	conv := func(cin, cout, k, hh, ww int) { f += 2 * float64(cin*cout*k*k) * float64(hh*ww) }
	in, ch := c.InChannels, c.BaseChannels
	for range c.Depth {
		conv(in, ch, 3, h, w)
		conv(ch, ch, 3, h, w)
		h, w = h/2, w/2
		in, ch = ch, ch*2
	}
	conv(in, ch, 3, h, w)
	conv(ch, ch, 3, h, w)
	for l := c.Depth - 1; l >= 0; l-- {
		skip := c.BaseChannels << l
		h, w = h*2, w*2
		conv(ch, skip, 1, h, w) // 2×2 stride-2 transpose: one tap per output
		conv(2*skip, skip, 3, h, w)
		conv(skip, skip, 3, h, w)
		ch = skip
	}
	conv(c.BaseChannels, c.Classes, 1, h, w)
	return f
}
