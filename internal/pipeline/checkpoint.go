package pipeline

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"seaice/internal/dataset"
	"seaice/internal/durable"
)

// shardCheckpoint is the on-disk record of one completed shard. Key ties
// the record to the exact source content and build configuration, so a
// resume against different data silently falls back to recomputing.
type shardCheckpoint struct {
	Version int
	Key     string
	Scenes  []int
	Tiles   [][]dataset.Tile
}

const checkpointVersion = 2

// shardMagic heads on-disk shard checkpoint files; the trailing byte is
// the format version. Version 2 is the checksummed durable record layout
// (see internal/durable). Loaders treat any verification failure as a
// cache miss and recompute the shard — a corrupt cache must never poison
// the products.
const shardMagic = "SEAICE-SHARD\x02"

// shardFormat is the shard record; every decode failure, a missing
// header included, is a corrupt shard.
var shardFormat = durable.Format{Magic: shardMagic, BadHeader: ErrCorruptShard, Corrupt: ErrCorruptShard}

// ErrCorruptShard reports a shard checkpoint whose header is valid but
// whose body fails integrity verification — truncation, checksum
// mismatch, or undecodable contents.
var ErrCorruptShard = errors.New("pipeline: corrupt shard checkpoint")

// checkpointKey fingerprints everything a shard's tiles depend on.
func (s *Stream) checkpointKey() string {
	h := sha256.Sum256([]byte(fmt.Sprintf(
		"v%d|%d scenes|%dx%d|tile %d|filter %+v|labeler %s|src %s",
		checkpointVersion, s.n, s.w, s.h, s.cfg.Build.TileSize,
		s.cfg.Build.Filter, s.cfg.Build.LabelerKey(), s.src.Fingerprint(),
	)))
	return fmt.Sprintf("%x", h[:])
}

// shardPath names shard k's checkpoint file.
func (s *Stream) shardPath(k int) string {
	return filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("shard-%04d.gob", k))
}

// restoreShards loads every matching shard checkpoint and delivers its
// tiles straight to the assembler, bypassing the label and tiling
// stages. It returns the set of scene indices restored. Unreadable,
// corrupt, or mismatched files are treated as cache misses, never as
// errors.
func (s *Stream) restoreShards() map[int]bool {
	restored := make(map[int]bool)
	if s.cfg.CheckpointDir == "" {
		return restored
	}
	key := s.checkpointKey()
	for k := range s.shards {
		cp, err := readShard(s.shardPath(k))
		if err != nil || cp.Version != checkpointVersion || cp.Key != key {
			continue
		}
		if len(cp.Scenes) != len(s.shards[k]) || len(cp.Tiles) != len(s.shards[k]) {
			continue
		}
		ok := true
		for i, idx := range cp.Scenes {
			if idx != s.shards[k][i] || len(cp.Tiles[i]) != s.tilesPerScene {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		s.emit(Event{Kind: "resume", Shard: k, ScenesDone: s.completed()})
		for i, idx := range cp.Scenes {
			restored[idx] = true
			s.deliver(idx, cp.Tiles[i], false)
		}
	}
	return restored
}

// completed reads the global completion count.
func (s *Stream) completed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doneCount
}

// saveShard persists a completed shard durably (durable.WriteFile; shards
// save concurrently, but the writer is serial per shard). Write failures
// are recorded as the stream's non-fatal checkpoint error (CheckpointErr) — a broken disk must not kill a
// compute run that can finish in memory.
func (s *Stream) saveShard(k int) {
	if s.cfg.CheckpointDir == "" {
		return
	}
	cp := shardCheckpoint{
		Version: checkpointVersion,
		Key:     s.checkpointKey(),
		Scenes:  s.shards[k],
	}
	s.mu.Lock()
	for _, idx := range s.shards[k] {
		cp.Tiles = append(cp.Tiles, s.tiles[idx])
	}
	s.mu.Unlock()

	write := func(w io.Writer) error { return shardFormat.Encode(w, &cp) }
	// An injected torn write truncates the file mid-body; the CRC layout
	// makes the next restore detect it and recompute the shard.
	err := durable.WriteFile(s.shardPath(k), 1, s.cfg.Chaos.TornWrite(k), write)
	if err != nil {
		s.mu.Lock()
		s.cpErr = fmt.Errorf("pipeline: checkpoint shard %d: %w", k, err)
		s.mu.Unlock()
	}
}

// CheckpointErr reports the last non-fatal checkpoint write failure, if
// any; the pipeline's data products are unaffected by it.
func (s *Stream) CheckpointErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cpErr
}

// readShard decodes one checkpoint file, verifying the magic header, the
// explicit body length, and the CRC32C trailer before trusting a single
// decoded byte.
func readShard(path string) (*shardCheckpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var cp shardCheckpoint
	if err := shardFormat.Decode(f, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// VerifyShardFile scrubs one checkpoint file without loading it into a
// stream: it verifies the checksummed layout end to end and returns the
// scene count and total tile count it holds. Used by the CLI
// -verify-state scrub mode.
func VerifyShardFile(path string) (scenes, tiles int, err error) {
	cp, err := readShard(path)
	if err != nil {
		return 0, 0, err
	}
	if cp.Version != checkpointVersion {
		return 0, 0, fmt.Errorf("%w: version %d (want %d)", ErrCorruptShard, cp.Version, checkpointVersion)
	}
	if len(cp.Scenes) != len(cp.Tiles) {
		return 0, 0, fmt.Errorf("%w: %d scenes but %d tile sets", ErrCorruptShard, len(cp.Scenes), len(cp.Tiles))
	}
	for _, ts := range cp.Tiles {
		tiles += len(ts)
	}
	return len(cp.Scenes), tiles, nil
}
