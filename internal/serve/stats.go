package serve

import (
	"slices"
	"sync"
	"time"
)

// requestWindow is how many recent request latencies the percentile
// estimates are computed over.
const requestWindow = 4096

// latencyWindow is a sliding window of the most recent latencies with
// nearest-rank percentiles. Owners guard it with their own mutex.
type latencyWindow struct {
	buf  []time.Duration // ring buffer; the first n entries are filled
	next int
	n    int
}

// add slides d into the window, evicting the oldest entry when full.
func (w *latencyWindow) add(d time.Duration) {
	w.buf[w.next] = d
	w.next = (w.next + 1) % len(w.buf)
	w.n = min(w.n+1, len(w.buf))
}

// percentiles returns the nearest-rank percentile of the window for each
// p; the window must not be empty.
func (w *latencyWindow) percentiles(ps ...float64) []time.Duration {
	sorted := slices.Clone(w.buf[:w.n])
	slices.Sort(sorted)
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = sorted[percentileIndex(w.n, p)]
	}
	return out
}

// Stats aggregates service-level metrics: request/tile/batch counters
// and a sliding window of request latencies for percentile estimates.
// All methods are safe for concurrent use.
type Stats struct {
	mu       sync.Mutex
	start    time.Time
	requests int64
	tiles    int64
	errors   int64
	rejected int64
	batches  int64
	batched  int64 // tiles that went through batches
	restarts int64 // inference workers restarted after a panic
	expired  int64 // requests dropped in queue after their deadline passed
	infeasib int64 // requests refused by predictive deadline admission

	lat latencyWindow // successful requests only
}

// NewStats returns a zeroed recorder with the clock started.
func NewStats() *Stats {
	return &Stats{start: time.Now(), lat: latencyWindow{buf: make([]time.Duration, requestWindow)}}
}

// RecordRequest accounts one classification request covering n tiles.
// Failed requests count as errors but stay out of the latency window:
// fast 429s during overload must not drag the reported percentiles
// down while the requests that actually succeed are slow.
func (s *Stats) RecordRequest(d time.Duration, n int, failed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	s.tiles += int64(n)
	if failed {
		s.errors++
		return
	}
	s.lat.add(d)
}

// RecordBatch accounts one executed forward-pass batch of n tiles.
func (s *Stats) RecordBatch(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	s.batched += int64(n)
}

// RecordWorkerRestart accounts one inference worker restarted after a
// panic (injected or real) — the health signal behind /healthz.
func (s *Stats) RecordWorkerRestart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.restarts++
}

// WorkerRestarts reports the cumulative restart count.
func (s *Stats) WorkerRestarts() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restarts
}

// RecordReject accounts one request refused for backpressure.
func (s *Stats) RecordReject() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rejected++
}

// RecordExpired accounts one queued request dropped before compute
// because its deadline had already passed.
func (s *Stats) RecordExpired() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expired++
}

// RecordDeadlineReject accounts one request refused at admission because
// the service-time model predicted it could not meet its deadline.
func (s *Stats) RecordDeadlineReject() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.infeasib++
}

// Snapshot is a point-in-time view of the service metrics, shaped for
// the /statz endpoint.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Requests      int64   `json:"requests"`
	Tiles         int64   `json:"tiles"`
	Errors        int64   `json:"errors"`
	Rejected      int64   `json:"rejected"`
	Batches       int64   `json:"batches"`
	AvgBatchSize  float64 `json:"avg_batch_size"`
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`
	RequestsPerS  float64 `json:"requests_per_s"`
	TilesPerS     float64 `json:"tiles_per_s"`
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRate  float64 `json:"cache_hit_rate"`
	QueueDepth    int     `json:"queue_depth"`
	// WorkerRestarts and LiveWorkers are the self-healing pool's health
	// signals: restarts count recovered panics; live is the current
	// worker gauge (dips briefly mid-restart).
	WorkerRestarts int64 `json:"worker_restarts"`
	LiveWorkers    int   `json:"live_workers"`
	// ExpiredDropped counts queued requests dropped before compute after
	// their deadline passed (HTTP 504); DeadlineRejected counts requests
	// the admission model refused at enqueue (HTTP 429 with a
	// model-derived Retry-After); PredictedWaitMS is the model's current
	// completion estimate for a newly enqueued request.
	ExpiredDropped   int64   `json:"expired_dropped"`
	DeadlineRejected int64   `json:"deadline_rejected"`
	PredictedWaitMS  float64 `json:"predicted_wait_ms"`
}

// Snapshot folds the counters and the current queue/cache/worker state
// into a Snapshot.
func (s *Stats) Snapshot(queueDepth, liveWorkers int, cacheHits, cacheMisses int64) Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	up := time.Since(s.start).Seconds()
	snap := Snapshot{
		UptimeSeconds:    up,
		Requests:         s.requests,
		Tiles:            s.tiles,
		Errors:           s.errors,
		Rejected:         s.rejected,
		Batches:          s.batches,
		CacheHits:        cacheHits,
		CacheMisses:      cacheMisses,
		QueueDepth:       queueDepth,
		WorkerRestarts:   s.restarts,
		LiveWorkers:      liveWorkers,
		ExpiredDropped:   s.expired,
		DeadlineRejected: s.infeasib,
	}
	if s.batches > 0 {
		snap.AvgBatchSize = float64(s.batched) / float64(s.batches)
	}
	if up > 0 {
		snap.RequestsPerS = float64(s.requests) / up
		snap.TilesPerS = float64(s.tiles) / up
	}
	if total := cacheHits + cacheMisses; total > 0 {
		snap.CacheHitRate = float64(cacheHits) / float64(total)
	}
	if s.lat.n > 0 {
		p := s.lat.percentiles(0.50, 0.99)
		snap.P50Millis = float64(p[0]) / float64(time.Millisecond)
		snap.P99Millis = float64(p[1]) / float64(time.Millisecond)
	}
	return snap
}

// percentileIndex maps a percentile to a sorted-slice index (nearest
// rank).
func percentileIndex(n int, p float64) int {
	i := int(p*float64(n) + 0.5)
	if i >= n {
		i = n - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}
