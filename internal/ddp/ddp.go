// Package ddp is the Horovod analogue: synchronous data-parallel U-Net
// training across N workers with ring all-reduce gradient averaging
// (§III-C1). Each worker is a goroutine owning a full model replica — the
// stand-in for one GPU of the paper's DGX A100 — and every step follows
// Horovod's protocol:
//
//  1. rank 0 broadcasts initial weights (BroadcastGlobalVariables),
//  2. each rank computes gradients on its shard of the global batch,
//  3. gradients are averaged with the bandwidth-optimal ring all-reduce,
//  4. every rank applies an identical Adam update, keeping replicas
//     bit-synchronized.
//
// The trainer is additionally *elastic and fault tolerant*: replica
// failures (injected deterministically via internal/chaos, at exact
// global-step boundaries) are detected through the membership-aware ring
// (ring.Group), and the run recovers without losing a single committed
// update. Two recovery modes exist:
//
//   - Recover (default): the failed step is aborted, the dead replica is
//     healed — weights, optimizer state, and RNG position copied from a
//     survivor, or, when no survivors remain, restored from the latest
//     mid-epoch snapshot and replayed forward — and the step is retried
//     with the full complement. Every committed update is therefore
//     executed exactly once with all ranks, which makes a
//     killed-and-recovered float64 run **bit-identical** to a
//     never-failed one (asserted by the chaos tests at 1, 3, and 4
//     workers; float32-mixed runs are bit-identical too, since snapshots
//     store exact float64 state).
//   - Elastic: dead ranks stay dead; subsequent batches are resharded
//     over the survivors and gradients are averaged by a ring rebuilt
//     over them with re-chunked geometry. Throughput degrades, the
//     update sequence changes (documented, deterministic given the fault
//     schedule), and the run finishes instead of failing.
//
// Mid-epoch snapshots (model weights, Adam moments, master weights,
// each rank's RNG position, and the batch cursor) are taken every
// Config.SnapshotEvery steps and optionally persisted (atomically) to
// Config.SnapshotPath; a process killed at any instant resumes from the
// last snapshot bit-identically, because training from any step boundary
// is a pure function of the snapshot state and the seeded batch
// schedule.
//
// Table III's timing is reported through the calibrated
// perfmodel.Horovod virtual clock (Config.Timing), while the gradient
// math is real and the equivalence theorem "K-worker DDP step ==
// single-model step on the merged batch" is verified in the tests.
//
// The trainer consumes materialized sample sets (each rank needs random
// access to its shard of every global batch); streaming callers
// materialize via pipeline.Stream.TrainSamples, which still overlaps
// labeling with scene generation upstream.
//
// The trainer is generic over the compute precision: float64 replicas
// reproduce the reference engine bit-for-bit, float32 replicas halve
// every ring hop's wire bytes and may enable float64 master weights
// (Config.MasterWeights) for mixed-precision stability; either
// instantiation is bit-deterministic across runs and worker counts.
package ddp

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/perfmodel"
	"seaice/internal/ring"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// DefaultSnapshotEvery is the snapshot cadence (in global steps) when
// Config.SnapshotEvery is unset.
const DefaultSnapshotEvery = 8

// ErrKilled reports a run aborted by an injected process-kill fault.
// The trainer state is abandoned mid-flight (as a real kill would leave
// it); resume by restoring the last snapshot into a fresh trainer.
var ErrKilled = errors.New("ddp: run killed by injected fault (resume from the last snapshot)")

// Config controls a distributed training run.
type Config struct {
	// Workers is the number of simulated GPUs (the paper sweeps
	// 1,2,4,6,8).
	Workers int
	// BatchPerWorker is the per-GPU batch size (paper: 32 per node).
	BatchPerWorker int
	Epochs         int
	LR             float64
	Seed           uint64
	// MasterWeights keeps float64 master copies of the weights in each
	// rank's Adam — the mixed-precision recipe for float32 replicas; it
	// has no effect on float64 replicas.
	MasterWeights bool
	// Focal, if non-nil, trains every replica with the focal loss at
	// these parameters instead of plain softmax cross-entropy; each
	// rank's criterion is stateless apart from scratch buffers, so
	// recovery and snapshot replay are unaffected.
	Focal *nn.FocalParams
	// Timing supplies the virtual clock for reported epoch times; the
	// zero value disables virtual timing.
	Timing perfmodel.Horovod
	// Progress, if non-nil, receives per-epoch mean loss.
	Progress func(epoch int, loss float64)

	// Chaos injects deterministic faults (replica crashes, process
	// kills, stragglers) at global-step boundaries; nil disables
	// injection. Real (non-injected) replica errors — a failing
	// LossAndGrad — still abort the run: recovery is defined for worker
	// *loss*, where retrying is sound, not for compute errors, which
	// would recur deterministically on retry.
	Chaos *chaos.Injector
	// SnapshotEvery is the step cadence of mid-epoch snapshots; <= 0
	// uses DefaultSnapshotEvery. A snapshot is always taken at the first
	// step of a run (or resume), so snapshot-replay recovery is always
	// possible.
	SnapshotEvery int
	// SnapshotPath, when non-empty, persists each snapshot atomically to
	// this file, enabling kill-and-restart resume across processes.
	SnapshotPath string
	// SnapshotKeep is the on-disk snapshot rotation depth (the live file
	// plus SnapshotKeep-1 older generations); <= 0 uses
	// DefaultSnapshotKeep. Resume falls back to the newest generation
	// that passes its checksum, so one corrupt or torn write never
	// strands a run.
	SnapshotKeep int
	// Guard is the per-step numeric anomaly guard over the reduced
	// gradient vector (train.CheckGrads); the zero value disables it.
	// On anomaly the step is rolled back via RNG rewind and retried
	// once; a reproduced anomaly is skipped or aborts per the policy.
	Guard train.GuardConfig
	// Elastic switches recovery policy: instead of heal-and-retry
	// (bit-identical), dead ranks stay dead and training continues over
	// the survivors with resharded batches and a re-chunked survivor
	// ring. Deterministic given the fault schedule, but a different —
	// documented — update sequence than the no-fault run.
	Elastic bool
}

// EpochStat records one epoch's timing and loss.
type EpochStat struct {
	Loss           float64
	VirtualSeconds float64
	RealSeconds    float64
}

// Result summarizes the run.
type Result struct {
	Epochs       []EpochStat
	VirtualTotal float64
	RealTotal    float64
	// Throughput is images/second against the virtual clock (the
	// paper's "Data/s" column).
	Throughput float64

	// Steps is the number of committed global steps this Fit executed
	// (excluding resumed-over steps, discarded attempts, and replays).
	Steps int
	// Recoveries counts replicas healed after a detected failure.
	Recoveries int
	// Replays counts snapshot-replay recoveries (crashes with no
	// survivors, e.g. the single-worker case).
	Replays int
	// Stalls counts absorbed straggler delays.
	Stalls int
	// Anomalies counts gradient anomalies the numeric guard caught; each
	// was rolled back before any weight was touched.
	Anomalies int
	// GuardSkips counts steps whose update was dropped by the skip
	// policy after an anomaly survived its rolled-back retry.
	GuardSkips int
	// LostRanks lists ranks still dead at exit (elastic mode only).
	LostRanks []int
}

// Trainer owns the worker replicas, generic over the compute precision
// of the replicas and the reduced gradient vectors (float32 halves the
// bytes every ring hop moves).
type Trainer[S tensor.Scalar] struct {
	core[S]
	replicas []*unet.Model[S]
	opts     []*nn.Adam[S]
	// flat holds one packed gradient vector per replica, reused across
	// steps.
	flat [][]S

	// group tracks live ring membership across failures.
	group *ring.Group
	// guardSkipped marks global steps whose update the numeric guard
	// dropped (skip policy): a snapshot replay must re-run their compute
	// (to advance the RNG streams) without re-applying the update.
	guardSkipped map[int]bool
}

// New builds a trainer whose rank-0 replica is initialized from the model
// configuration; ranks 1..N-1 receive rank 0's weights by broadcast.
func New[S tensor.Scalar](modelCfg unet.Config, cfg Config) (*Trainer[S], error) {
	c, err := newCore[S](modelCfg, cfg)
	if err != nil {
		return nil, err
	}
	t := &Trainer[S]{core: c}
	for r := 0; r < cfg.Workers; r++ {
		m, opt, err := t.newRank(r)
		if err != nil {
			return nil, err
		}
		t.replicas = append(t.replicas, m)
		t.opts = append(t.opts, opt)
	}
	for r := 1; r < cfg.Workers; r++ {
		if err := t.replicas[r].CopyWeightsFrom(t.replicas[0]); err != nil {
			return nil, err
		}
	}
	if t.group, err = ring.NewGroup(cfg.Workers); err != nil {
		return nil, err
	}
	return t, nil
}

// Replica exposes a rank's model (rank 0 is the canonical result).
func (t *Trainer[S]) Replica(rank int) *unet.Model[S] { return t.replicas[rank] }

// Group exposes the ring membership (for tests and progress reporting).
func (t *Trainer[S]) Group() *ring.Group { return t.group }

// snapshotKey fingerprints the configuration a resumed run must share
// with the run that wrote the snapshot; the sample set is fingerprinted
// separately (dataFingerprint) because it exists only once Fit runs.
func (t *Trainer[S]) snapshotKey() string {
	return fmt.Sprintf("model %+v|workers %d|batch %d|epochs %d|lr %g|seed %d|master %t",
		t.modelCfg, t.cfg.Workers, t.cfg.BatchPerWorker, t.cfg.Epochs, t.cfg.LR, t.cfg.Seed,
		t.cfg.MasterWeights)
}

// dataFingerprint hashes the sample set's count, dimensions, imagery,
// and labels. Resume-on-different-data would silently train the wrong
// batches from the cursor onward, so Fit refuses it.
func dataFingerprint(samples []train.Sample) string {
	h := sha256.New()
	var dims [8]byte
	binary.LittleEndian.PutUint64(dims[:], uint64(len(samples)))
	h.Write(dims[:])
	var lbuf []byte
	for _, s := range samples {
		binary.LittleEndian.PutUint32(dims[:4], uint32(s.Image.W))
		binary.LittleEndian.PutUint32(dims[4:], uint32(s.Image.H))
		h.Write(dims[:])
		h.Write(s.Image.Pix)
		if cap(lbuf) < len(s.Labels.Pix) {
			lbuf = make([]byte, len(s.Labels.Pix))
		}
		lbuf = lbuf[:len(s.Labels.Pix)]
		for i, c := range s.Labels.Pix {
			lbuf[i] = byte(c)
		}
		h.Write(lbuf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Snapshot captures the exact training state at the current step
// boundary. All live ranks are bit-synchronized, so weights and
// optimizer state are taken from the lowest live rank; RNG positions are
// per rank.
func (t *Trainer[S]) Snapshot(step int) *Snapshot {
	src := 0
	if live := t.group.Live(); len(live) > 0 {
		src = live[0]
	}
	rng := make([]noise.RNGState, len(t.replicas))
	for r, m := range t.replicas {
		rng[r] = m.RNGState()
	}
	return t.snapshot(step, t.snapshotKey(), t.replicas[src], t.opts[src], rng)
}

// Restore loads a snapshot into the trainer: every rank gets the
// snapshot weights and optimizer state, its own RNG position, and full
// ring membership. Fit then resumes from the snapshot's batch cursor.
func (t *Trainer[S]) Restore(s *Snapshot) error {
	if err := t.accept(s, t.snapshotKey(), len(t.replicas)); err != nil {
		return err
	}
	for r, m := range t.replicas {
		if err := m.SetWeightsF64(s.Weights); err != nil {
			return err
		}
		m.SetRNGState(s.RNG[r])
		t.opts[r].SetState(s.Opt) // SetState deep-copies, so ranks do not share buffers
		t.group.Heal(r)
	}
	return nil
}

// computeGrads runs forward+backward on every listed rank's shard
// concurrently (each replica's kernels fan out on the shared pool) and
// returns the mean loss across ranks that held samples, plus the number
// of straggler delays absorbed. Straggler delays for this step fire
// inside the affected rank's goroutine.
func (t *Trainer[S]) computeGrads(ranks []int, shards [][]train.Sample, step int) (float64, int, error) {
	losses := make([]float64, len(t.replicas))
	counted := make([]bool, len(t.replicas))
	stalled := make([]bool, len(t.replicas))
	errs := make([]error, len(t.replicas))
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for _, r := range ranks {
		go func(rank int) {
			defer wg.Done()
			if d := t.cfg.Chaos.StragglerDelay(rank, step); d > 0 {
				// A straggler slows the whole synchronous ring (wall
				// clock only — results are unaffected, which the chaos
				// tests assert).
				stalled[rank] = true
				time.Sleep(d)
			}
			losses[rank], counted[rank], errs[rank] = gradStep(t.replicas[rank], shards[rank])
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	total, n, stalls := 0.0, 0, 0
	for r, ok := range counted {
		if ok {
			total += losses[r]
			n++
		}
		if stalled[r] {
			stalls++
		}
	}
	if n == 0 {
		return 0, stalls, nil
	}
	return total / float64(n), stalls, nil
}

// reduceGrads flattens the listed ranks' gradients and averages them
// through the membership-aware chunked ring (rebuilt over the live set,
// re-chunked geometry). An injected NaN fault scheduled for (rank, step)
// poisons that rank's flattened vector just before the reduction — NaN
// propagates through the mean, so every rank's guard sees the same
// non-finite reduced vector. step < 0 (the fault-free Step/replay path)
// never matches a fault.
func (t *Trainer[S]) reduceGrads(ranks []int, step int) error {
	p := len(t.replicas)
	if t.flat == nil {
		t.flat = make([][]S, p)
	}
	for _, r := range ranks {
		t.flat[r] = pack(t.flat[r], t.replicas[r].Params(), grads)
		if step >= 0 && t.cfg.Chaos.NaNStep(r, step) {
			t.flat[r][0] = S(math.NaN())
		}
	}
	// Dead ranks keep stale flat buffers; ensure they exist so the group
	// collective sees a full-length slice set.
	for r := 0; r < p; r++ {
		if t.flat[r] == nil {
			t.flat[r] = make([]S, len(t.flat[ranks[0]]))
		}
	}
	if err := ring.AllReduceMeanChunkedGroup(t.group, t.flat, ring.DefaultChunk); err != nil {
		return err
	}
	for _, r := range ranks {
		unpack(t.flat[r], t.replicas[r].Params(), grads)
	}
	return nil
}

// applyAdam commits the averaged gradients on the listed ranks
// concurrently; identical updates keep them bit-synchronized.
func (t *Trainer[S]) applyAdam(ranks []int) {
	var wg sync.WaitGroup
	wg.Add(len(ranks))
	for _, r := range ranks {
		go func(rank int) {
			defer wg.Done()
			t.opts[rank].Step(t.replicas[rank].Params())
		}(r)
	}
	wg.Wait()
}

// Step runs one synchronous data-parallel step over the full complement:
// shards[r] is rank r's mini-batch. It returns the mean loss across
// ranks. Step is the fault-free fast path (and the replay primitive);
// Fit's chaos-aware loop wraps it with detection and recovery.
func (t *Trainer[S]) Step(shards [][]train.Sample) (float64, error) {
	if len(shards) != len(t.replicas) {
		return 0, fmt.Errorf("ddp: %d shards for %d workers", len(shards), len(t.replicas))
	}
	all := t.allRanks()
	loss, _, err := t.computeGrads(all, shards, -1)
	if err != nil {
		return 0, err
	}
	if err := t.reduceGrads(all, -1); err != nil {
		return 0, err
	}
	t.applyAdam(all)
	return loss, nil
}

// heal recovers the dead ranks. With survivors, the replacement replica
// copies weights, optimizer state, and its own step-start RNG position
// from the captured state (the crash landed at the step boundary, before
// the rank consumed any noise); with none, the whole trainer restores
// the latest snapshot and replays forward to the current step, which is
// bit-identical by the determinism of Step. Returns whether a replay
// happened.
func (t *Trainer[S]) heal(step int, rngAtStart []noise.RNGState, res *Result) (bool, error) {
	dead := t.group.Dead()
	if len(dead) == 0 {
		return false, nil
	}
	live := t.group.Live()
	if len(live) == 0 {
		// Total loss — snapshot replay. Restore rewinds weights, Adam,
		// RNG, and membership; then deterministically re-execute the
		// steps between the snapshot and the current cursor.
		if t.snap == nil {
			return false, fmt.Errorf("ddp: all ranks failed at step %d with no snapshot", step)
		}
		snapStep := t.snap.Step
		if err := t.Restore(t.snap); err != nil {
			return false, err
		}
		res.Replays++
		res.Recoveries += len(dead)
		for h := snapStep; h < step; h++ {
			if t.guardSkipped[h] {
				// The guard dropped this step's update: re-run the compute
				// so every rank's RNG stream advances exactly as it did,
				// but apply nothing.
				if _, _, err := t.computeGrads(t.allRanks(), t.shardsFor(h), -1); err != nil {
					return false, fmt.Errorf("ddp: replay skipped step %d: %w", h, err)
				}
				continue
			}
			if _, err := t.Step(t.shardsFor(h)); err != nil {
				return false, fmt.Errorf("ddp: replay step %d: %w", h, err)
			}
		}
		return true, nil
	}
	src := live[0]
	for _, r := range dead {
		// A fresh replica stands in for the replacement worker; it
		// inherits the survivor's synchronized state and resumes its own
		// rank's RNG stream where the dead worker left it.
		m, opt, err := t.newRank(r)
		if err != nil {
			return false, err
		}
		if err := m.CopyWeightsFrom(t.replicas[src]); err != nil {
			return false, err
		}
		m.SetRNGState(rngAtStart[r])
		opt.SetState(t.opts[src].State())
		t.replicas[r], t.opts[r] = m, opt
		t.group.Heal(r)
		res.Recoveries++
	}
	return false, nil
}

// allRanks lists every rank, dead or alive.
func (t *Trainer[S]) allRanks() []int {
	all := make([]int, len(t.replicas))
	for r := range all {
		all[r] = r
	}
	return all
}

// Fit trains for the configured epochs over the dataset, sharding each
// global batch of Workers×BatchPerWorker samples across ranks. With a
// chaos injector configured, faults fire at their exact step boundaries
// and the run recovers per Config.Elastic; a ProcessKill fault aborts
// with ErrKilled after the last snapshot (resume via Restore +
// LoadSnapshotFile). A trainer restored from a snapshot resumes at its
// batch cursor.
func (t *Trainer[S]) Fit(samples []train.Sample) (*Result, error) {
	totalSteps, err := t.begin(samples)
	if err != nil {
		return nil, err
	}
	res := t.res
	for g := t.startStep; g < totalSteps; g++ {
		// ---- step boundary: snapshot, then faults fire ----
		if t.snapshotDue(g) && t.group.LiveCount() == len(t.replicas) {
			if err := t.keepSnapshot(t.Snapshot(g)); err != nil {
				return res, err
			}
		}
		if t.cfg.Chaos.ProcessKill(g) {
			// The process dies here; in-flight state is abandoned, as a
			// real SIGKILL would leave it. Resume restores the last
			// persisted snapshot into a fresh trainer.
			return res, ErrKilled
		}

		batch := t.batch(g)
		loss, err := t.chaosStep(g, batch, res)
		if err != nil {
			return res, err
		}
		t.commit(g, loss, len(batch), t.group.LiveCount())
	}
	return t.finish(t.group.Dead()), nil
}

// chaosStep executes global step g with failure detection and recovery.
func (t *Trainer[S]) chaosStep(g int, batch []train.Sample, res *Result) (float64, error) {
	p := len(t.replicas)
	guardRetried := false
	for {
		// Capture every rank's RNG position at the step boundary so an
		// aborted attempt can be rewound exactly.
		rngAtStart := make([]noise.RNGState, p)
		for r, m := range t.replicas {
			rngAtStart[r] = m.RNGState()
		}

		// Replica crashes scheduled for this step fire now: the worker
		// dies at the boundary, producing no gradients. The membership
		// group is how the survivors detect it.
		for r := 0; r < p; r++ {
			if t.group.IsLive(r) && t.cfg.Chaos.ReplicaCrash(r, g) {
				t.group.Fail(r)
			}
		}

		live := t.group.Live()
		if len(live) == 0 {
			if t.cfg.Elastic {
				// Elastic mode never resurrects ranks — with the last
				// survivor gone there is nothing to continue on, and a
				// snapshot replay would silently rewrite the degraded
				// steps already committed over survivors.
				return 0, fmt.Errorf("ddp: all replicas lost at step %d (elastic mode does not heal)", g)
			}
			if _, err := t.heal(g, rngAtStart, res); err != nil {
				return 0, err
			}
			continue // retry step g with the restored complement
		}
		if len(live) < len(t.replicas) && !t.cfg.Elastic {
			// Recover mode heals before computing: the boundary detection
			// already knows who died, so spending a full forward/backward
			// + all-reduce on a step that must be retried anyway would be
			// pure waste. (A loss detected mid-exchange — RankError below
			// — still discards the attempt.)
			if _, err := t.heal(g, rngAtStart, res); err != nil {
				return 0, err
			}
			continue
		}

		// Shard the batch: over the full complement in recover mode (the
		// committed execution always has every rank), over the survivors
		// in elastic mode.
		var shards [][]train.Sample
		if t.cfg.Elastic {
			shards = shardOver(batch, live, p)
		} else {
			shards = shard(batch, p)
		}

		loss, stalls, err := t.computeGrads(live, shards, g)
		if err != nil {
			return 0, err
		}
		res.Stalls += stalls
		aborted := false // a peer died mid-exchange; partial sums untrustworthy
		if err := t.reduceGrads(live, g); err != nil {
			var re *ring.RankError
			if !errors.As(err, &re) {
				return 0, err
			}
			aborted = true
		}

		if aborted {
			// Discard the attempt and rewind the participants' RNG
			// streams (they consumed dropout noise that will be redrawn
			// on retry). Recover mode additionally heals the dead ranks
			// so the retry runs with the full complement; elastic mode
			// leaves them dead and retries over the remaining survivors.
			if t.cfg.Elastic {
				for _, r := range live {
					if t.group.IsLive(r) {
						t.replicas[r].SetRNGState(rngAtStart[r])
					}
				}
				continue
			}
			replayed, err := t.heal(g, rngAtStart, res)
			if err != nil {
				return 0, err
			}
			if !replayed {
				for r, m := range t.replicas {
					m.SetRNGState(rngAtStart[r])
				}
			}
			continue
		}

		// Numeric guard: scan the reduced gradient (identical on every
		// participating rank) before any weight moves. An anomaly rolls
		// the attempt back via RNG rewind and retries once — which clears
		// transient corruption like an injected NaN; a reproduced anomaly
		// is deterministic in (weights, batch, RNG) and falls to the
		// policy: drop the update and continue, or abort typed.
		if t.cfg.Guard.Enabled() {
			if a := train.CheckGrads(t.cfg.Guard, g, t.flat[live[0]]); a != nil {
				res.Anomalies++
				if !guardRetried {
					guardRetried = true
					for _, r := range live {
						t.replicas[r].SetRNGState(rngAtStart[r])
					}
					continue
				}
				if t.cfg.Guard.Policy == train.GuardAbort {
					return 0, a
				}
				if t.guardSkipped == nil {
					t.guardSkipped = make(map[int]bool)
				}
				t.guardSkipped[g] = true
				res.GuardSkips++
				return loss, nil
			}
		}

		// Commit: identical Adam updates on the participating ranks.
		t.applyAdam(live)
		return loss, nil
	}
}

// shard splits a batch round-robin across ranks; with batch =
// Workers×BatchPerWorker every rank gets exactly BatchPerWorker samples.
func shard(batch []train.Sample, workers int) [][]train.Sample {
	out := make([][]train.Sample, workers)
	for i, s := range batch {
		r := i % workers
		out[r] = append(out[r], s)
	}
	return out
}

// shardOver distributes a batch round-robin across the live ranks only —
// the elastic resharding that keeps every sample trained when the
// complement shrinks. Dead ranks receive empty shards.
func shardOver(batch []train.Sample, live []int, workers int) [][]train.Sample {
	out := make([][]train.Sample, workers)
	for i, s := range batch {
		r := live[i%len(live)]
		out[r] = append(out[r], s)
	}
	return out
}
