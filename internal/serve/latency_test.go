package serve

import (
	"testing"
	"time"
)

// TestLatencyWindowSlides checks the window keeps only the newest
// entries once full and reports nearest-rank percentiles over them.
func TestLatencyWindowSlides(t *testing.T) {
	w := latencyWindow{buf: make([]time.Duration, 4)}
	for d := time.Duration(1); d <= 6; d++ {
		w.add(d)
	}
	p := w.percentiles(0, 0.5, 1)
	if w.n != 4 || p[0] != 3 || p[1] != 5 || p[2] != 6 {
		t.Fatalf("window of 4 after 1..6: n=%d percentiles(0, .5, 1)=%v, want n=4 [3 5 6]", w.n, p)
	}
}
