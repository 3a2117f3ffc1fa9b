package serve

import (
	"image/png"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestCoordinatorBoundsOversizedStripBody: a node that answers 200 with
// a body far larger than its strip's label bytes is a failed node. The
// coordinator reads at most one byte past the expected length, reroutes
// the tiles to the healthy node, and the whole request allocates about
// 8 MiB, far below the oversized body's size; buffering the body whole
// would allocate several times it.
func TestCoordinatorBoundsOversizedStripBody(t *testing.T) {
	const bodySize = 64 << 20
	cfg := DefaultConfig()
	cfg.TileSize = 32

	flood := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		chunk := make([]byte, 32<<10)
		for sent := 0; sent < bodySize; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return // the coordinator hung up, as it should
			}
		}
	}))
	defer flood.Close()
	// healthy answers every strip with class-0 labels of the right length.
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		strip, err := png.Decode(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		b := strip.Bounds()
		w.Write(make([]byte, b.Dx()*b.Dy()))
	}))
	defer healthy.Close()

	coord, cts := testCoordinator(t, cfg, []string{
		strings.TrimPrefix(flood.URL, "http://"),
		strings.TrimPrefix(healthy.URL, "http://"),
	})
	// Enough tiles that the hash ring gives the flooding node a share.
	img := testSceneImg(t, 37, 128, 128)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, body := postPNG(t, http.DefaultClient, cts.URL+"/classify", img)
	runtime.ReadMemStats(&after)

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 after rerouting", resp.StatusCode, body)
	}
	if s := coord.Stats(); s.Rerouted == 0 || len(s.NodesDown) != 1 || s.NodesDown[0] != 0 {
		t.Fatalf("flooding node not failed over: %+v", s)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bodySize/4 {
		t.Fatalf("request allocated %d bytes against a %d-byte strip body", alloc, bodySize)
	}
}

// TestCoordinatorCapsRelayedRejectBody: a worker's 4xx body is relayed
// to the client cut to maxRelayBody bytes.
func TestCoordinatorCapsRelayedRejectBody(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TileSize = 32
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write(make([]byte, 16*maxRelayBody))
	}))
	defer stub.Close()

	_, cts := testCoordinator(t, cfg, []string{strings.TrimPrefix(stub.URL, "http://")})
	resp, body := postPNG(t, http.DefaultClient, cts.URL+"/classify", testSceneImg(t, 38, 64, 64))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want the worker's 429", resp.StatusCode)
	}
	if len(body) != maxRelayBody {
		t.Fatalf("relayed %d body bytes, want the %d-byte cap", len(body), maxRelayBody)
	}
}
