package cloudfilter

import (
	"math"
	"testing"

	"seaice/internal/pool"
	"seaice/internal/scene"
)

// TestFilterIdenticalAcrossWorkerCounts: the filter's smoothing and
// morphology stripe rows on the shared pool, and every output field
// must be byte-equal with one worker and with three, on a clear, a
// lightly veiled and a heavily clouded scene.
func TestFilterIdenticalAcrossWorkerCounts(t *testing.T) {
	light := scene.DefaultClouds()
	light.Bias, light.MaxOpacity, light.ShadowStrength = 0.5, 0.2, 0.15
	heavy := scene.DefaultClouds()
	heavy.Bias, heavy.MaxOpacity, heavy.ShadowStrength = 0.4, 0.5, 0.45
	cases := []struct {
		name   string
		clouds scene.CloudSpec
	}{
		{"clear", scene.ClearClouds()},
		{"light-veil", light},
		{"heavy-cloud", heavy},
	}
	defer pool.SetSharedWorkers(pool.Shared().Workers())
	for i, tc := range cases {
		cfg := scene.DefaultConfig(uint64(310 + i))
		cfg.W, cfg.H = 150, 203
		cfg.Clouds = tc.clouds
		sc, err := scene.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pool.SetSharedWorkers(1)
		want := FilterDefault(sc.Image)
		pool.SetSharedWorkers(3)
		got := FilterDefault(sc.Image)

		if string(got.Image.Pix) != string(want.Image.Pix) {
			t.Errorf("%s: Image differs between 1 and 3 workers", tc.name)
		}
		if string(got.CloudMask.Pix) != string(want.CloudMask.Pix) {
			t.Errorf("%s: CloudMask differs between 1 and 3 workers", tc.name)
		}
		for name, pair := range map[string][2][]float64{
			"Opacity": {got.Opacity.Pix, want.Opacity.Pix},
			"Shadow":  {got.Shadow.Pix, want.Shadow.Pix},
		} {
			for j := range pair[1] {
				if math.Float64bits(pair[0][j]) != math.Float64bits(pair[1][j]) {
					t.Errorf("%s: %s[%d] = %v with 3 workers, %v with 1", tc.name, name, j, pair[0][j], pair[1][j])
					break
				}
			}
		}
	}
}
