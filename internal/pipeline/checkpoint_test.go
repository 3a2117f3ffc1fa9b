package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"seaice/internal/dataset"
	"seaice/internal/raster"
)

// FuzzVerifyShardFile asserts any file content yields a verified shard
// or ErrCorruptShard, never a panic.
func FuzzVerifyShardFile(f *testing.F) {
	tile := dataset.Tile{Original: raster.NewRGB(2, 2), Manual: raster.NewLabels(2, 2)}
	cp := shardCheckpoint{Version: checkpointVersion, Key: "k", Scenes: []int{0}, Tiles: [][]dataset.Tile{{tile}}}
	var buf bytes.Buffer
	if err := shardFormat.Encode(&buf, &cp); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := bytes.Clone(valid)
	flipped[len(shardMagic)+8+4] ^= 0x40
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn
	f.Add(flipped)
	// Inputs run one at a time within a fuzz process, so one path serves.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "shard-0000.gob")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := VerifyShardFile(path); err != nil && !errors.Is(err, ErrCorruptShard) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}
