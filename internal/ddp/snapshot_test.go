package ddp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"seaice/internal/durable"
	"seaice/internal/noise"
)

// rotationEntry names the i-th snapshot rotation file.
var rotationEntry = durable.Entry

// TestReadSnapshotBoundsAllocation is the regression test for a header
// that claims a huge body: the reader must fail on the missing bytes
// without first allocating what the length field claims.
func TestReadSnapshotBoundsAllocation(t *testing.T) {
	stream := binary.BigEndian.AppendUint64([]byte(snapMagic), 2<<30)
	stream = append(stream, "junk"...)
	if len(stream) != 28 {
		t.Fatalf("stream is %d bytes, want 28", len(stream))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshot(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("got %v, want ErrCorruptSnapshot", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a 28-byte stream allocated %d bytes", alloc)
	}
}

// FuzzReadSnapshot asserts any byte stream yields a snapshot or a typed
// error, never a panic.
func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	s := &Snapshot{
		Precision: "float64", Key: "k", Step: 3,
		Weights: map[string][]float64{"w": {1, 2, 3}},
		RNG:     []noise.RNGState{{}},
	}
	if err := s.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := bytes.Clone(valid)
	flipped[len(snapMagic)+8+4] ^= 0x40
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrBadSnapshot) && !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
