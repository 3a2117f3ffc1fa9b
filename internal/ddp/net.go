package ddp

import (
	"errors"
	"fmt"
	"math"
	"time"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/ring"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// NetTrainer is the multi-process counterpart of Trainer: one process
// owns exactly one rank's replica and exchanges gradients through a
// ring.Collective — ring.Local for in-process tests, transport's TCP
// ring for a real cluster. The math is the in-process trainer's: both
// run the same rank helpers (rank.go) — per-rank replica construction
// (seed offsets, rank-0 weight broadcast), deterministic shard
// assignment, chunked all-reduce schedule, and Adam update — so rank r of a
// NetTrainer run finishes with weights byte-identical to replica r of a
// single-process Workers-way run on the same data (asserted by the
// parity tests and the CI cluster-smoke job, for float64 and
// float32-mixed alike).
//
// Fault tolerance works at step granularity. Every step boundary
// captures a rollback state (exact float64 weights, Adam state, RNG
// position). Any failure — a peer crash surfacing as a connection error,
// an injected partition, a dropped frame timing out — aborts the step
// with *ring.RankError; the trainer restores the boundary state, calls
// Reestablish (rendezvous + agreement on the minimum outstanding step),
// rolls back one committed step if a peer is behind (the commit barrier
// bounds divergence to one), and retries. Each committed update is
// therefore executed exactly once with the full complement, preserving
// PR 5's invariant: a faulted run is byte-identical to a never-failed
// one.
//
// Reported losses are rank-local (the mean over this rank's shard);
// global loss aggregation would cost an extra collective per step for a
// statistic the weights already embody.
type NetTrainer[S tensor.Scalar] struct {
	core[S]
	rank  int
	coll  ring.Collective[S]
	model *unet.Model[S]
	opt   *nn.Adam[S]
	flat  []S
	// guardRetried is the step already rolled back and retried for a
	// numeric anomaly (-1: none); a second trip at the same step is
	// deterministic and falls to the guard policy.
	guardRetried int
}

// NewNet builds one rank of a distributed run. cfg.Workers must equal
// the collective's world size; the model and shard math then match the
// in-process Workers-way trainer exactly.
func NewNet[S tensor.Scalar](modelCfg unet.Config, cfg Config, coll ring.Collective[S]) (*NetTrainer[S], error) {
	if coll == nil {
		return nil, fmt.Errorf("ddp: nil collective")
	}
	if cfg.Workers != coll.World() {
		return nil, fmt.Errorf("ddp: %d workers for world of %d", cfg.Workers, coll.World())
	}
	c, err := newCore[S](modelCfg, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Elastic {
		return nil, fmt.Errorf("ddp: elastic mode is in-process only (network recovery retries with the full complement)")
	}
	t := &NetTrainer[S]{core: c, rank: coll.Rank(), coll: coll, guardRetried: -1}
	if t.model, t.opt, err = t.newRank(t.rank); err != nil {
		return nil, err
	}
	return t, nil
}

// Model exposes this rank's replica (every rank's weights are
// bit-synchronized at step boundaries).
func (t *NetTrainer[S]) Model() *unet.Model[S] { return t.model }

// netKey extends the topology fingerprint with the rank: a rank-local
// snapshot restores only into the same rank of the same run shape.
func (t *NetTrainer[S]) netKey() string {
	return fmt.Sprintf("net rank %d/%d|model %+v|batch %d|epochs %d|lr %g|seed %d|master %t",
		t.rank, t.cfg.Workers, t.modelCfg, t.cfg.BatchPerWorker, t.cfg.Epochs, t.cfg.LR, t.cfg.Seed,
		t.cfg.MasterWeights)
}

// Snapshot captures this rank's exact training state at step boundary
// `step` — the rank-local slice of what the in-process trainer snapshots
// globally (all ranks are bit-synchronized, so each rank's weights and
// optimizer state equal every other's; only the RNG position is its own).
func (t *NetTrainer[S]) Snapshot(step int) *Snapshot {
	return t.snapshot(step, t.netKey(), t.model, t.opt, []noise.RNGState{t.model.RNGState()})
}

// Restore loads a rank-local snapshot; Fit then resumes from its step
// without re-broadcasting weights (every rank restored the same
// bit-synchronized state).
func (t *NetTrainer[S]) Restore(s *Snapshot) error {
	if err := t.accept(s, t.netKey(), 1); err != nil {
		return err
	}
	return t.load(s)
}

// load sets this rank's weights, optimizer state, and RNG position from
// a rank-local snapshot — also the step-boundary rollback.
func (t *NetTrainer[S]) load(s *Snapshot) error {
	if err := t.model.SetWeightsF64(s.Weights); err != nil {
		return err
	}
	t.opt.SetState(s.Opt)
	t.model.SetRNGState(s.RNG[0])
	return nil
}

// syncWeights broadcasts rank 0's parameters to every rank — the
// network form of Trainer.New's CopyWeightsFrom loop, moving the exact
// S-precision bit patterns.
func (t *NetTrainer[S]) syncWeights() error {
	t.flat = pack(t.flat, t.model.Params(), weights)
	if err := t.coll.Broadcast(t.flat); err != nil {
		return err
	}
	if t.rank != 0 {
		unpack(t.flat, t.model.Params(), weights)
	}
	return nil
}

// reestablishRetry drives the rendezvous until the ring converges; the
// whole complement re-enters Establish after a fault, but not in
// lockstep, so individual attempts can time out while peers catch up.
func (t *NetTrainer[S]) reestablishRetry(step int) (int, error) {
	var lastErr error
	for attempt := 0; attempt < 8; attempt++ {
		agreed, err := t.coll.Reestablish(step)
		if err == nil {
			return agreed, nil
		}
		lastErr = err
	}
	return 0, fmt.Errorf("ddp: rank %d: ring re-establish failed: %w", t.rank, lastErr)
}

// Fit trains this rank for the configured epochs, bit-synchronized with
// its peers. See the type comment for the recovery protocol; a
// ProcessKill fault aborts every rank with ErrKilled after the last
// snapshot (each process resumes from its own rank-local snapshot file).
func (t *NetTrainer[S]) Fit(samples []train.Sample) (*Result, error) {
	totalSteps, err := t.begin(samples)
	if err != nil {
		return nil, err
	}
	res := t.res
	agreed, err := t.reestablishRetry(t.startStep)
	if err != nil {
		return res, err
	}
	if !t.restored {
		if err := t.syncWeights(); err != nil {
			return res, err
		}
	} else if agreed != t.startStep {
		// Resumed ranks restored identical bit-synchronized state; the
		// rendezvous only has to agree they are at the same step.
		return res, fmt.Errorf("ddp: rank %d resumed at step %d but ring agreed %d (mismatched snapshots?)",
			t.rank, t.startStep, agreed)
	}

	// curB and prevB are the rollback states of the current and previous
	// step boundaries (exact float64 weights, Adam state, RNG position).
	var prevB, curB *Snapshot
	g := t.startStep
	for g < totalSteps {
		batch := t.batch(g)
		t.coll.StepStart(g) // boundary faults (partition, reconnect) fire here

		// ---- step boundary: rollback state, snapshot, kill ----
		if curB == nil || curB.Step != g {
			prevB, curB = curB, t.Snapshot(g)
		}
		if t.snapshotDue(g) {
			if err := t.keepSnapshot(curB); err != nil {
				return res, err
			}
		}
		if t.cfg.Chaos.ProcessKill(g) {
			// Every process of the run sees the same schedule, so the
			// whole cluster dies at this boundary; each rank resumes
			// from its own snapshot file.
			return res, ErrKilled
		}

		loss, err := t.attemptStep(g, batch, res)
		if err == nil {
			t.commit(g, loss, len(batch), t.cfg.Workers)
			g++
			continue
		}
		if errors.Is(err, errGuardRetry) {
			// Numeric anomaly in the reduced gradient. Every rank scanned
			// the identical reduced bytes and reached this verdict in
			// lockstep; connections are intact, so roll back the boundary
			// state locally and retry the step without a rendezvous.
			if rerr := t.load(curB); rerr != nil {
				return res, rerr
			}
			continue
		}
		var re *ring.RankError
		if !errors.As(err, &re) {
			return res, err
		}
		// Abort: undo any partial effect of the attempt (applied update,
		// consumed dropout noise), re-rendezvous, and agree where to
		// retry from.
		if rerr := t.load(curB); rerr != nil {
			return res, rerr
		}
		agreed, eerr := t.reestablishRetry(g)
		if eerr != nil {
			return res, eerr
		}
		if agreed < g {
			// A peer never committed a step this rank did; the commit
			// barrier bounds the gap to one, so the previous boundary
			// state is always sufficient to rewind.
			if prevB == nil || prevB.Step != agreed {
				return res, fmt.Errorf("ddp: rank %d must rewind to step %d but holds no boundary state for it",
					t.rank, agreed)
			}
			if rerr := t.load(prevB); rerr != nil {
				return res, rerr
			}
			t.unwind(agreed, g)
			curB, prevB = prevB, nil
			g = agreed
		}
		res.Recoveries++
	}
	return t.finish(nil), nil
}

// attemptStep runs one optimistic step: gradients on this rank's shard,
// ring-averaged, Adam-applied, then the commit barrier. Any *RankError
// leaves partial state for the caller to roll back.
func (t *NetTrainer[S]) attemptStep(g int, batch []train.Sample, res *Result) (float64, error) {
	if d := t.cfg.Chaos.StragglerDelay(t.rank, g); d > 0 {
		// Absorbed: the synchronous ring waits, results are unaffected.
		res.Stalls++
		time.Sleep(d)
	}
	loss, _, err := gradStep(t.model, shard(batch, t.cfg.Workers)[t.rank])
	if err != nil {
		return 0, err
	}
	t.flat = pack(t.flat, t.model.Params(), grads)
	if t.cfg.Chaos.NaNStep(t.rank, g) {
		// Poison one pre-reduce element: the ring mean propagates the NaN
		// to every rank, so the guard verdict below is unanimous.
		t.flat[0] = S(math.NaN())
	}
	if err := t.coll.AllReduceMean(t.flat, ring.DefaultChunk); err != nil {
		return 0, err
	}
	if t.cfg.Guard.Enabled() {
		if a := train.CheckGrads(t.cfg.Guard, g, t.flat); a != nil {
			res.Anomalies++
			if t.guardRetried != g {
				// First trip at this step: signal the caller to roll back
				// and re-execute; a transient (injected) corruption comes
				// out clean on the retry.
				t.guardRetried = g
				return 0, fmt.Errorf("%w: %v", errGuardRetry, a)
			}
			if t.cfg.Guard.Policy == train.GuardAbort {
				return 0, a
			}
			// Reproduced anomaly under GuardSkip: drop the update (weights
			// untouched, dropout noise stays consumed) but still commit the
			// barrier so every rank advances in lockstep.
			res.GuardSkips++
			if err := t.coll.Commit(g); err != nil {
				return 0, err
			}
			return loss, nil
		}
	}
	unpack(t.flat, t.model.Params(), grads)
	t.opt.Step(t.model.Params())
	if err := t.coll.Commit(g); err != nil {
		return 0, err
	}
	return loss, nil
}

// errGuardRetry asks Fit to roll back the current boundary and retry the
// step after a first numeric-anomaly verdict. Distinct from *RankError:
// the ring is healthy, so no re-rendezvous is needed.
var errGuardRetry = errors.New("ddp: numeric anomaly, retrying step")
