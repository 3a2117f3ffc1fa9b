// Package durable owns the one on-disk record format for training state
// and the one crash-safe file write behind every state file the system
// persists. A record is
//
//	[magic][bodyLen:8 BE][gob body][crc32c(body):4 BE]
//
// The CRC32C (Castagnoli) trailer covers the gob body, so a flipped bit
// anywhere in the state fails verification at load, and the explicit
// length makes a torn (truncated) write detectable before gob ever runs.
// ddp snapshots and pipeline shard checkpoints are records; unet
// checkpoints keep their own layout but are written through WriteFile.
package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Format is one record type: the magic that heads it (its trailing byte
// is conventionally the format version) and the errors its decode
// failures wrap, so each caller keeps its own typed errors. Both errors
// must be set.
type Format struct {
	Magic string
	// BadHeader is wrapped when the stream does not begin with Magic:
	// not a record of this format at all.
	BadHeader error
	// Corrupt is wrapped when the header is valid but the body fails
	// verification: truncation, trailing bytes, a checksum mismatch, or
	// undecodable contents.
	Corrupt error
}

// Encode writes v as one record.
func (f Format) Encode(w io.Writer, v any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(v); err != nil {
		return err
	}
	head := binary.BigEndian.AppendUint64([]byte(f.Magic), uint64(body.Len()))
	crc := binary.BigEndian.AppendUint32(nil, crc32.Checksum(body.Bytes(), crcTable))
	for _, b := range [][]byte{head, body.Bytes(), crc} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads exactly one record from r into v, verifying the magic,
// the body length, the CRC32C trailer, and that nothing follows the
// trailer before trusting a single decoded byte. The body buffer grows
// only as bytes arrive, so a corrupt length cannot allocate what it
// claims.
func (f Format) Decode(r io.Reader, v any) error {
	head := make([]byte, len(f.Magic)+8)
	n, err := io.ReadFull(r, head)
	if n < len(f.Magic) || string(head[:len(f.Magic)]) != f.Magic {
		return fmt.Errorf("%w: missing or truncated header", f.BadHeader)
	}
	if err != nil {
		return fmt.Errorf("%w: truncated length header", f.Corrupt)
	}
	size := binary.BigEndian.Uint64(head[len(f.Magic):])
	if size == 0 || size > math.MaxInt64 {
		return fmt.Errorf("%w: implausible body length %d", f.Corrupt, size)
	}
	var body bytes.Buffer
	if _, err := io.CopyN(&body, r, int64(size)); err != nil {
		return fmt.Errorf("%w: truncated body (torn write?)", f.Corrupt)
	}
	// One byte past the trailer tells a trailing byte from a clean end.
	var tail [5]byte
	switch n, _ := io.ReadFull(r, tail[:]); {
	case n < 4:
		return fmt.Errorf("%w: truncated CRC trailer", f.Corrupt)
	case n > 4:
		return fmt.Errorf("%w: trailing bytes after the CRC trailer", f.Corrupt)
	}
	want := binary.BigEndian.Uint32(tail[:4])
	if got := crc32.Checksum(body.Bytes(), crcTable); got != want {
		return fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", f.Corrupt, got, want)
	}
	if err := gob.NewDecoder(&body).Decode(v); err != nil {
		return fmt.Errorf("%w: %v", f.Corrupt, err)
	}
	return nil
}

// Entry names generation i of a rotated file: path itself for i = 0,
// then "path.1", "path.2", … for older generations.
func Entry(path string, i int) string {
	if i == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, i)
}

// WriteFile durably replaces path with what write produces, keeping the
// previous keep-1 generations as Entry(path, 1), … (keep <= 1 keeps only
// path). The bytes go to a temp file that is fsynced before it is
// renamed over path, and the directory is fsynced after, so neither a
// crash mid-write nor a power cut after the rename can leave path
// without a durable good generation; a write that fails leaves every
// existing generation untouched. Writers must be serial per path.
//
// torn is the fault hook: it truncates the new file mid-body before the
// rename, simulating a crash between write and fsync — the corruption
// Decode must catch and loaders must skip.
func WriteFile(path string, keep int, torn bool, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Reap orphaned temp files from earlier interrupted writes of this
	// same path (the writer is serial per path, so anything matching the
	// pattern is stale).
	pattern := "." + filepath.Base(path) + "-*.tmp"
	if stale, err := filepath.Glob(filepath.Join(dir, pattern)); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if torn {
		if st, err := tmp.Stat(); err == nil {
			tmp.Truncate(st.Size() / 2)
		}
	}
	// CreateTemp makes the file private; state files are ordinary files
	// other tools (seaice-serve, scrub modes) read.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// Shift the existing generations up one slot (each rename replaces
	// the oldest atomically) before the new file takes the live name;
	// missing generations are normal, so rename errors are ignored.
	for i := keep - 1; i >= 1; i-- {
		os.Rename(Entry(path, i-1), Entry(path, i))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
