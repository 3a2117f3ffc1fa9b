package unet

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"seaice/internal/durable"
	"seaice/internal/tensor"
)

// ErrBadCheckpoint is the typed error every malformed-checkpoint load
// failure wraps: corrupted magic, truncated or garbage gob, impossible
// configs, missing or mis-sized weights. Load never panics on
// adversarial input (FuzzLoadCheckpoint asserts this) — callers branch
// with errors.Is(err, ErrBadCheckpoint).
var ErrBadCheckpoint = errors.New("unet: malformed checkpoint")

// Checkpoint format. Version 2 files begin with a fixed magic header
// followed by a gob-encoded checkpointV2; weights are always stored as
// float64 (every float32 value is exactly representable, so a float32
// model round-trips bit-for-bit and a float64 model keeps full
// precision). Files written before the header existed are bare gobs of
// the legacy struct; Load sniffs the magic and falls back, so old
// float64 checkpoints load into either precision (down-converting on
// load for float32 models).

// ckptMagic identifies a versioned checkpoint stream. The trailing byte
// is the format version.
const ckptMagic = "SEAICE-UNET-CKPT\x02"

// checkpoint is the legacy (pre-header) on-disk format.
type checkpoint struct {
	Config  Config
	Weights map[string][]float64
}

// checkpointV2 is the versioned format: the precision records which
// instantiation wrote the file (informational — weights always load into
// the precision the caller requests).
type checkpointV2 struct {
	Precision string
	Config    Config
	Weights   map[string][]float64
}

// precisionName reports "float32" or "float64" for the instantiation.
func precisionName[S tensor.Scalar]() string {
	if tensor.IsF32[S]() {
		return "float32"
	}
	return "float64"
}

// Save writes the model's configuration and weights in the versioned
// format: the magic header, then encoding/gob.
func (m *Model[S]) Save(w io.Writer) error {
	ck := checkpointV2{Precision: precisionName[S](), Config: m.cfg, Weights: m.WeightsF64()}
	if _, err := io.WriteString(w, ckptMagic); err != nil {
		return fmt.Errorf("unet: save: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("unet: save: %w", err)
	}
	return nil
}

// SaveFile writes a checkpoint file crash-safely (durable.WriteFile): a
// failed or interrupted save leaves the previous file at path intact.
func (m *Model[S]) SaveFile(path string) error {
	return durable.WriteFile(path, 1, false, m.Save)
}

// Load reconstructs a model from a checkpoint stream in the requested
// precision. Versioned (magic-headed) and legacy bare-gob streams both
// load; float64 weights are rounded when S is float32. Any malformed
// input — bad magic or version byte, truncated or garbage gob,
// impossible config, missing or mis-sized weights — returns an error
// wrapping ErrBadCheckpoint; Load never panics.
func Load[S tensor.Scalar](r io.Reader) (*Model[S], error) {
	br := bufio.NewReader(r)
	var ck checkpointV2
	head, err := br.Peek(len(ckptMagic))
	switch {
	case err == nil && string(head) == ckptMagic:
		if _, err := br.Discard(len(ckptMagic)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		if err := gob.NewDecoder(br).Decode(&ck); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	case err == nil && string(head[:len(ckptMagic)-1]) == ckptMagic[:len(ckptMagic)-1]:
		// Right magic text, unknown version byte: a format this build
		// does not speak. Refuse loudly instead of misparsing it as a
		// legacy bare gob.
		return nil, fmt.Errorf("%w: unsupported checkpoint version %d", ErrBadCheckpoint, head[len(ckptMagic)-1])
	case err == nil || err == io.EOF:
		// No magic: a checkpoint written before the versioned header.
		var legacy checkpoint
		if err := gob.NewDecoder(br).Decode(&legacy); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
		ck = checkpointV2{Precision: "float64", Config: legacy.Config, Weights: legacy.Weights}
	default:
		return nil, fmt.Errorf("unet: load: %w", err)
	}
	m, err := New[S](ck.Config)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := m.SetWeightsF64(ck.Weights); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return m, nil
}

// LoadFile reads a checkpoint file into the requested precision.
func LoadFile[S tensor.Scalar](path string) (*Model[S], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("unet: %w", err)
	}
	defer f.Close()
	return Load[S](f)
}

// CopyWeightsFrom overwrites this model's parameters with src's — the
// rank-0 broadcast of Horovod-style training. The models must share a
// configuration (ignoring seeds).
func (m *Model[S]) CopyWeightsFrom(src *Model[S]) error {
	a, b := m.Params(), src.Params()
	if len(a) != len(b) {
		return fmt.Errorf("unet: parameter count mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].W.Len() != b[i].W.Len() {
			return fmt.Errorf("unet: parameter %s size mismatch", a[i].Name)
		}
		copy(a[i].W.Data, b[i].W.Data)
	}
	return nil
}
