package ddp

import (
	"errors"
	"fmt"
	"io"
	"os"

	"seaice/internal/durable"
	"seaice/internal/nn"
	"seaice/internal/noise"
)

// Snapshot is the exact mid-epoch training state at a global-step
// boundary: model weights (stored float64 — exact for either compute
// precision), the full Adam state (moments and, for mixed precision, the
// float64 master weights), each rank's RNG-stream position (dropout
// noise), and the batch cursor. Restoring a snapshot and re-running the
// remaining steps reproduces the uninterrupted run bit for bit, because
// every step is a deterministic function of this state and the seeded
// batch schedule — the recovery invariant the chaos tests assert.
type Snapshot struct {
	// Precision is "float32" or "float64"; a snapshot restores only into
	// the instantiation that wrote it (moments and masters are exact
	// either way, but cross-precision resume would not be bit-identical
	// to either pure run).
	Precision string
	// Key fingerprints the model configuration and training topology;
	// Restore rejects a mismatch.
	Key string
	// Data fingerprints the sample set (count, dimensions, pixel and
	// label content): resuming against different training data cannot be
	// bit-identical, so Fit rejects a mismatch.
	Data string
	// Step is the batch cursor: the number of completed global steps.
	Step int
	// Weights maps parameter name to float64 values (rank-synchronized,
	// so one copy covers every replica).
	Weights map[string][]float64
	// Opt is the optimizer state (identical across ranks).
	Opt nn.AdamState
	// RNG is each rank's generator position (ranks have distinct dropout
	// streams).
	RNG []noise.RNGState
}

// snapMagic heads on-disk snapshot files; the trailing byte is the
// format version. Version 4 is the checksummed durable record layout
// (see internal/durable).
const snapMagic = "SEAICE-DDP-SNAP\x04"

// snapFormat is the snapshot record: a missing header is a malformed
// stream, any later failure a corrupt snapshot.
var snapFormat = durable.Format{Magic: snapMagic, BadHeader: ErrBadSnapshot, Corrupt: ErrCorruptSnapshot}

// ErrSnapshotMismatch reports a snapshot whose key or precision does not
// match the trainer it is being restored into.
var ErrSnapshotMismatch = errors.New("ddp: snapshot does not match trainer configuration")

// ErrBadSnapshot reports a stream that is not a snapshot at all (missing
// or unknown header).
var ErrBadSnapshot = errors.New("ddp: malformed snapshot")

// ErrCorruptSnapshot reports a snapshot whose header is valid but whose
// body fails integrity verification — truncation, checksum mismatch, or
// inconsistent decoded contents. Loaders fall back to an older rotation
// entry instead of resuming from silent garbage.
var ErrCorruptSnapshot = errors.New("ddp: corrupt snapshot")

// DefaultSnapshotKeep is the snapshot rotation depth when the caller
// does not choose one: the newest snapshot plus one verified-good
// fallback entry.
const DefaultSnapshotKeep = 2

// Write encodes the snapshot in the checksummed v4 layout.
func (s *Snapshot) Write(w io.Writer) error {
	if err := snapFormat.Encode(w, s); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	return nil
}

// saveSnapshotFile durably writes the snapshot and rotates the previous
// generations, keeping the newest `keep` entries (path, path.1, …). torn
// is the torn-write fault hook; see durable.WriteFile.
func saveSnapshotFile(path string, s *Snapshot, keep int, torn bool) error {
	write := func(w io.Writer) error { return snapFormat.Encode(w, s) }
	if err := durable.WriteFile(path, keep, torn, write); err != nil {
		return fmt.Errorf("ddp: save snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot decodes one snapshot record, verifying the magic header,
// the explicit body length, and the CRC32C trailer before trusting a
// single decoded byte.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := snapFormat.Decode(r, &s); err != nil {
		return nil, err
	}
	if s.Step < 0 || len(s.RNG) == 0 || s.Weights == nil {
		return nil, fmt.Errorf("%w: inconsistent contents", ErrCorruptSnapshot)
	}
	return &s, nil
}

// LoadSnapshotFile reads one snapshot file strictly: a corrupt file is
// an error, with no rotation fallback.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ddp: load snapshot: %w", err)
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// LoadSnapshotFallback loads the newest verifiable snapshot from the
// rotation (path, path.1, … up to keep entries), returning the entry it
// verified. A corrupt or torn newest entry — the window a crash during
// write leaves behind — falls back to the previous generation instead
// of failing the resume; only when no entry verifies does it return the
// errors, newest first.
func LoadSnapshotFallback(path string, keep int) (*Snapshot, string, error) {
	if keep < 1 {
		keep = 1
	}
	var errs []error
	for i := 0; i < keep; i++ {
		entry := durable.Entry(path, i)
		s, err := LoadSnapshotFile(entry)
		if err == nil {
			return s, entry, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", entry, err))
		if os.IsNotExist(errors.Unwrap(err)) && i > 0 {
			break // older generations don't exist either
		}
	}
	return nil, "", errors.Join(errs...)
}
