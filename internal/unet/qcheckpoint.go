package unet

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"seaice/internal/durable"
	"seaice/internal/tensor"
)

// Quantized checkpoint format (version 3). The stream begins with the
// shared magic text and the version byte \x03, followed by a gob of
// checkpointV3: the architecture, the float64 master weights, and the
// calibrated activation quantization table. Storing the master plus the
// scale/zero-point tables — rather than the derived int8 tensors — keeps
// the file a superset of a float checkpoint: quantization is
// deterministic, so LoadQuantized rebuilds bit-identical integer tables,
// and the same file can be loaded as a float model for re-training or
// re-calibration.
const ckptMagicV3 = "SEAICE-UNET-CKPT\x03"

// checkpointV3 is the on-disk quantized format.
type checkpointV3 struct {
	Config  Config
	Weights map[string][]float64
	Acts    map[string]tensor.ActQuant
}

// Save writes the quantized checkpoint (version 3).
func (q *QuantModel) Save(w io.Writer) error {
	ck := checkpointV3{Config: q.cfg, Weights: q.weights, Acts: q.acts}
	if _, err := io.WriteString(w, ckptMagicV3); err != nil {
		return fmt.Errorf("unet: save: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("unet: save: %w", err)
	}
	return nil
}

// SaveFile writes a quantized checkpoint file crash-safely
// (durable.WriteFile): a failed or interrupted save leaves the previous
// file at path intact.
func (q *QuantModel) SaveFile(path string) error {
	return durable.WriteFile(path, 1, false, q.Save)
}

// LoadQuantized reconstructs an int8 model from a version-3 checkpoint
// stream. Like Load, any malformed input — wrong magic or version,
// truncated or garbage gob, impossible config, missing or mis-sized
// weights, corrupt scale tables or out-of-domain zero-points — returns
// an error wrapping ErrBadCheckpoint and never panics
// (FuzzLoadCheckpoint asserts this for both loaders).
func LoadQuantized(r io.Reader) (*QuantModel, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(ckptMagicV3))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if string(head) != ckptMagicV3 {
		if string(head[:len(ckptMagicV3)-1]) == ckptMagicV3[:len(ckptMagicV3)-1] {
			return nil, fmt.Errorf("%w: checkpoint version %d is not quantized (version 3)",
				ErrBadCheckpoint, head[len(ckptMagicV3)-1])
		}
		return nil, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	var ck checkpointV3
	if err := gob.NewDecoder(br).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	qm, err := buildQuant(ck.Config, ck.Weights, ck.Acts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return qm, nil
}

// LoadQuantizedFile reads a quantized checkpoint file.
func LoadQuantizedFile(path string) (*QuantModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("unet: %w", err)
	}
	defer f.Close()
	return LoadQuantized(f)
}

// LoadMasterFromQuantized loads the float64 master embedded in a
// version-3 checkpoint — the re-training/re-calibration escape hatch.
func LoadMasterFromQuantized(r io.Reader) (*Model[float64], error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(ckptMagicV3))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if string(head) != ckptMagicV3 {
		return nil, fmt.Errorf("%w: not a quantized checkpoint", ErrBadCheckpoint)
	}
	var ck checkpointV3
	if err := gob.NewDecoder(br).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	m, err := New[float64](ck.Config)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := m.SetWeightsF64(ck.Weights); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return m, nil
}
