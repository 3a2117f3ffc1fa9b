package ddp

import (
	"fmt"
	"time"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// core is the rank step and step-boundary bookkeeping Trainer and
// NetTrainer share: the validated configuration, the batch schedule,
// snapshot state, and the ledger of the current Fit's committed steps.
// Only the two Fit loops' recovery protocols differ.
type core[S tensor.Scalar] struct {
	cfg      Config
	modelCfg unet.Config

	// snap is the latest in-memory snapshot; startStep is the batch
	// cursor a restored trainer resumes from; restored marks that snap
	// came from Restore, so Fit must verify it against the sample set.
	snap      *Snapshot
	startStep int
	restored  bool
	// lastSnapStep dedupes snapshots across step retries, so a
	// rolled-back attempt cannot churn the rotation generations.
	lastSnapStep int

	// batcher/nb/dataFP are installed by Fit; the batcher replays any
	// step's deterministic batch, and dataFP guards resume against a
	// different sample set.
	batcher *train.Batcher
	nb      int
	dataFP  string
	// epoch caches one epoch's batches: Batcher.Epoch reshuffles the
	// whole epoch on every call.
	epoch   int
	batches [][]train.Sample

	// The current Fit's ledger: committed loss per global step, samples
	// in committed steps, the step Fit started from, and the epoch clock.
	res        *Result
	losses     []float64
	samples    int
	fitStart   int
	epochStart time.Time
}

// newCore validates cfg and fills its defaults.
func newCore[S tensor.Scalar](modelCfg unet.Config, cfg Config) (core[S], error) {
	if cfg.Workers <= 0 {
		return core[S]{}, fmt.Errorf("ddp: workers %d", cfg.Workers)
	}
	if cfg.BatchPerWorker <= 0 || cfg.Epochs <= 0 {
		return core[S]{}, fmt.Errorf("ddp: invalid batch %d or epochs %d", cfg.BatchPerWorker, cfg.Epochs)
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = DefaultSnapshotKeep
	}
	return core[S]{cfg: cfg, modelCfg: modelCfg}, nil
}

// newRank builds rank r's replica, with its distinct dropout stream, and
// its Adam optimizer. Weights are broadcast from rank 0 (or copied by
// recovery), so only regularization noise differs between ranks.
func (c *core[S]) newRank(r int) (*unet.Model[S], *nn.Adam[S], error) {
	mc := c.modelCfg
	mc.Seed = c.modelCfg.Seed + uint64(r)*0x9e37
	m, err := unet.New[S](mc)
	if err != nil {
		return nil, nil, err
	}
	if c.cfg.Focal != nil {
		m.SetCriterion(nn.NewFocal[S](*c.cfg.Focal))
	}
	opt := nn.NewAdam[S](c.cfg.LR)
	opt.Master = c.cfg.MasterWeights
	return m, opt, nil
}

// accept checks that s restores into a trainer with this key, precision
// S, and rngs RNG streams, and makes it the resume point.
func (c *core[S]) accept(s *Snapshot, key string, rngs int) error {
	if s.Key != key {
		return fmt.Errorf("%w: key %q vs trainer %q", ErrSnapshotMismatch, s.Key, key)
	}
	if s.Precision != precisionName[S]() {
		return fmt.Errorf("%w: snapshot precision %s, trainer %s", ErrSnapshotMismatch, s.Precision, precisionName[S]())
	}
	if len(s.RNG) != rngs {
		return fmt.Errorf("%w: %d RNG states for %d ranks", ErrSnapshotMismatch, len(s.RNG), rngs)
	}
	c.snap, c.startStep, c.restored = s, s.Step, true
	return nil
}

// snapshot captures step's state from one bit-synchronized replica and
// its optimizer, plus the RNG position of each rank the snapshot covers.
func (c *core[S]) snapshot(step int, key string, m *unet.Model[S], opt *nn.Adam[S], rng []noise.RNGState) *Snapshot {
	return &Snapshot{
		Precision: precisionName[S](),
		Key:       key,
		Data:      c.dataFP,
		Step:      step,
		Weights:   m.WeightsF64(),
		Opt:       opt.State(),
		RNG:       rng,
	}
}

// precisionName reports the instantiation's precision tag.
func precisionName[S tensor.Scalar]() string {
	if tensor.IsF32[S]() {
		return "float32"
	}
	return "float64"
}

// begin is the Fit preamble: it installs the batch schedule over the
// global batch, fingerprints the sample set when snapshots or a resume
// need it, refuses to resume over different data, and opens the ledger.
// It returns the run's total global steps.
func (c *core[S]) begin(samples []train.Sample) (int, error) {
	batcher, err := train.NewBatcher(samples, c.cfg.Workers*c.cfg.BatchPerWorker, c.cfg.Seed)
	if err != nil {
		return 0, err
	}
	c.batcher, c.nb, c.epoch, c.batches = batcher, batcher.NumBatches(), -1, nil
	// The data fingerprint exists for snapshots and resume checks; a
	// plain fault-free run skips the full-dataset hash.
	if c.cfg.Chaos != nil || c.cfg.SnapshotPath != "" || c.restored {
		c.dataFP = dataFingerprint(samples)
	}
	if c.restored && c.snap != nil && c.snap.Data != "" && c.snap.Data != c.dataFP {
		// A cursor into a different sample set would silently train the
		// wrong batches; bit-identical resume is only defined on the
		// data the snapshot was taken over. Checked even at cursor 0 —
		// restoring a snapshot is a claim about the data it came from.
		return 0, fmt.Errorf("%w: snapshot was taken over a different sample set", ErrSnapshotMismatch)
	}
	total := c.cfg.Epochs * c.nb
	c.res, c.losses, c.samples = &Result{}, make([]float64, total), 0
	c.fitStart, c.lastSnapStep, c.epochStart = c.startStep, -1, time.Now()
	return total, nil
}

// batch returns global step g's batch.
func (c *core[S]) batch(g int) []train.Sample {
	if e := g / c.nb; e != c.epoch {
		c.epoch, c.batches = e, c.batcher.Epoch(e)
	}
	return c.batches[g%c.nb]
}

// shardsFor reconstructs the deterministic shard assignment of global
// step g — the replay primitive.
func (c *core[S]) shardsFor(g int) [][]train.Sample {
	return shard(c.batch(g), c.cfg.Workers)
}

// snapshotDue reports whether step g's boundary takes a snapshot.
// Snapshots exist for recovery (chaos) and restart (SnapshotPath), so a
// plain fault-free run skips the deep copies entirely; the first step of
// a run (or resume) always snapshots, so replay recovery is always
// possible.
func (c *core[S]) snapshotDue(g int) bool {
	return (c.cfg.Chaos != nil || c.cfg.SnapshotPath != "") &&
		(g == c.startStep || g%c.cfg.SnapshotEvery == 0) && g != c.lastSnapStep
}

// keepSnapshot makes s the latest snapshot and persists it when
// SnapshotPath is set. An injected torn-write fault truncates the file
// mid-body; the rotation keeps the previous generation, and resume
// (LoadSnapshotFallback) detects the tear and falls back to it.
func (c *core[S]) keepSnapshot(s *Snapshot) error {
	c.snap, c.lastSnapStep = s, s.Step
	if c.cfg.SnapshotPath == "" {
		return nil
	}
	return saveSnapshotFile(c.cfg.SnapshotPath, s, c.cfg.SnapshotKeep, c.cfg.Chaos.TornWrite(s.Step))
}

// commit books committed step g (its loss and n samples) and closes the
// epoch at its last step; live is the rank count the virtual clock
// charges.
func (c *core[S]) commit(g int, loss float64, n, live int) {
	c.losses[g] = loss
	c.res.Steps++
	c.samples += n
	if g%c.nb != c.nb-1 {
		return
	}
	epoch := g / c.nb
	first := max(epoch*c.nb, c.fitStart) // resumed mid-epoch: only the executed tail
	sum := 0.0
	for h := first; h <= g; h++ {
		sum += c.losses[h]
	}
	steps := g + 1 - first
	stat := EpochStat{Loss: sum / float64(steps), RealSeconds: time.Since(c.epochStart).Seconds()}
	if c.cfg.Timing.Compute > 0 {
		// Scale the modeled epoch time to the steps this Fit executed, so
		// virtual totals cover the work actually done.
		stat.VirtualSeconds = c.cfg.Timing.EpochTime(live) * float64(steps) / float64(c.nb)
	}
	c.res.Epochs = append(c.res.Epochs, stat)
	c.res.RealTotal += stat.RealSeconds
	c.res.VirtualTotal += stat.VirtualSeconds
	if c.cfg.Progress != nil {
		c.cfg.Progress(epoch, stat.Loss)
	}
	c.epochStart = time.Now()
}

// unwind reverses the ledger of committed steps [agreed, cursor) that a
// ring-wide rollback is about to re-execute (bit-identically, so the
// redo restores every number).
func (c *core[S]) unwind(agreed, cursor int) {
	for h := cursor - 1; h >= agreed; h-- {
		c.res.Steps--
		c.samples -= len(c.batch(h))
		if h%c.nb == c.nb-1 && len(c.res.Epochs) > 0 {
			last := c.res.Epochs[len(c.res.Epochs)-1]
			c.res.Epochs = c.res.Epochs[:len(c.res.Epochs)-1]
			c.res.RealTotal -= last.RealSeconds
			c.res.VirtualTotal -= last.VirtualSeconds
		}
	}
}

// finish closes the ledger. Throughput counts the samples this Fit
// trained — len(samples)×Epochs for an unresumed run; a resumed run
// counts only its own committed steps, so throughput is never inflated
// by the already-snapshotted portion.
func (c *core[S]) finish(lost []int) *Result {
	c.res.LostRanks = lost
	if c.res.VirtualTotal > 0 {
		c.res.Throughput = float64(c.samples) / c.res.VirtualTotal
	}
	return c.res
}

// gradStep zeroes m's gradients and runs forward+backward on its shard,
// returning the shard's loss. An empty shard (the rank idles this step)
// contributes zero gradients and ok = false.
func gradStep[S tensor.Scalar](m *unet.Model[S], shard []train.Sample) (loss float64, ok bool, err error) {
	nn.ZeroGrads(m.Params())
	if len(shard) == 0 {
		return 0, false, nil
	}
	x, labels, err := train.ToTensor[S](shard)
	if err != nil {
		return 0, false, err
	}
	loss, err = m.LossAndGrad(x, labels)
	return loss, true, err
}

// grads and weights select the tensor pack and unpack move.
func grads[S tensor.Scalar](p *nn.Param[S]) *tensor.Tensor[S]   { return p.Grad }
func weights[S tensor.Scalar](p *nn.Param[S]) *tensor.Tensor[S] { return p.W }

// pack copies the selected tensor of every parameter into one contiguous
// vector, reusing buf: one buffer lets the all-reduce run as a single
// chunked, pipelined operation instead of one serial ring per parameter.
func pack[S tensor.Scalar](buf []S, params []*nn.Param[S], of func(*nn.Param[S]) *tensor.Tensor[S]) []S {
	n := 0
	for _, p := range params {
		n += of(p).Len()
	}
	if cap(buf) < n {
		buf = make([]S, n)
	}
	buf = buf[:n]
	off := 0
	for _, p := range params {
		off += copy(buf[off:], of(p).Data)
	}
	return buf
}

// unpack copies a packed vector back into the selected tensors.
func unpack[S tensor.Scalar](flat []S, params []*nn.Param[S], of func(*nn.Param[S]) *tensor.Tensor[S]) {
	off := 0
	for _, p := range params {
		t := of(p)
		off += copy(t.Data, flat[off:off+t.Len()])
	}
}
