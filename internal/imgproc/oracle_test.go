package imgproc

import (
	"math"
	"testing"

	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/raster"
)

// The oracles below are the serial, clamp-per-tap implementations the
// striped operators replaced. The property tests hold the production
// code to them bit for bit.

// smoothFloatOracle is the clamp-per-tap separable Gaussian: one serial
// sum per pixel, horizontal pass then a column-walking vertical pass.
func smoothFloatOracle(src *raster.Float, sigma float64) *raster.Float {
	if sigma <= 0 {
		return src.Clone()
	}
	k := GaussianKernel(sigma)
	radius := len(k) / 2
	w, h := src.W, src.H
	tmp := raster.NewFloat(w, h)
	dst := raster.NewFloat(w, h)

	for y := 0; y < h; y++ {
		row := src.Pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			sum := 0.0
			for i, kv := range k {
				xx := x + i - radius
				if xx < 0 {
					xx = 0
				} else if xx >= w {
					xx = w - 1
				}
				sum += kv * row[xx]
			}
			tmp.Pix[y*w+x] = sum
		}
	}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			sum := 0.0
			for i, kv := range k {
				yy := y + i - radius
				if yy < 0 {
					yy = 0
				} else if yy >= h {
					yy = h - 1
				}
				sum += kv * tmp.Pix[yy*w+x]
			}
			dst.Pix[y*w+x] = sum
		}
	}
	return dst
}

// gaussianBlurOracle is the 8-bit clamp-per-tap Gaussian.
func gaussianBlurOracle(src *raster.Gray, sigma float64) *raster.Gray {
	k := GaussianKernel(sigma)
	radius := len(k) / 2
	if radius == 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	tmp := make([]float64, w*h)
	dst := raster.NewGray(w, h)

	for y := 0; y < h; y++ {
		row := src.Pix[y*w : (y+1)*w]
		for x := 0; x < w; x++ {
			sum := 0.0
			for i, kv := range k {
				sum += kv * float64(row[clampIdx(x+i-radius, w)])
			}
			tmp[y*w+x] = sum
		}
	}
	for x := 0; x < w; x++ {
		for y := 0; y < h; y++ {
			sum := 0.0
			for i, kv := range k {
				sum += kv * tmp[clampIdx(y+i-radius, h)*w+x]
			}
			dst.Pix[y*w+x] = clampU8(sum)
		}
	}
	return dst
}

// slideExtremeOracle is the closure-based monotone-deque running extreme
// over rows (horizontal) or columns.
func slideExtremeOracle(src *raster.Gray, radius int, horizontal, max bool) *raster.Gray {
	w, h := src.W, src.H
	dst := raster.NewGray(w, h)

	better := func(a, b uint8) bool {
		if max {
			return a >= b
		}
		return a <= b
	}

	process := func(get func(i int) uint8, set func(i int, v uint8), n int) {
		deque := make([]int, 0, n)
		for i := 0; i < n+radius; i++ {
			if i < n {
				v := get(i)
				for len(deque) > 0 && better(v, get(deque[len(deque)-1])) {
					deque = deque[:len(deque)-1]
				}
				deque = append(deque, i)
			}
			out := i - radius
			if out >= 0 {
				for len(deque) > 0 && deque[0] < out-radius {
					deque = deque[1:]
				}
				set(out, get(deque[0]))
			}
		}
	}

	if horizontal {
		for y := 0; y < h; y++ {
			row := src.Pix[y*w : (y+1)*w]
			out := dst.Pix[y*w : (y+1)*w]
			process(func(i int) uint8 { return row[i] }, func(i int, v uint8) { out[i] = v }, w)
		}
	} else {
		for x := 0; x < w; x++ {
			process(func(i int) uint8 { return src.Pix[i*w+x] }, func(i int, v uint8) { dst.Pix[i*w+x] = v }, h)
		}
	}
	return dst
}

// medianFilterOracle is the histogram median that rescans the bins from
// 0 for every pixel.
func medianFilterOracle(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	dst := raster.NewGray(w, h)
	win := (2*radius + 1) * (2*radius + 1)
	half := win / 2

	var hist [256]int
	for y := 0; y < h; y++ {
		// build histogram for x=0 window
		for i := range hist {
			hist[i] = 0
		}
		for dy := -radius; dy <= radius; dy++ {
			sy := clampIdx(y+dy, h)
			for dx := -radius; dx <= radius; dx++ {
				hist[src.Pix[sy*w+clampIdx(dx, w)]]++
			}
		}
		for x := 0; x < w; x++ {
			// find median
			cnt := 0
			med := 0
			for v := 0; v < 256; v++ {
				cnt += hist[v]
				if cnt > half {
					med = v
					break
				}
			}
			dst.Pix[y*w+x] = uint8(med)
			// slide window right
			if x+1 < w {
				outX := clampIdx(x-radius, w)
				inX := clampIdx(x+radius+1, w)
				for dy := -radius; dy <= radius; dy++ {
					sy := clampIdx(y+dy, h)
					hist[src.Pix[sy*w+outX]]--
					hist[src.Pix[sy*w+inX]]++
				}
			}
		}
	}
	return dst
}

// oracleShapes are raster sizes the property tests sweep: kernels wider
// than the image, single rows and columns, and a full scene.
var oracleShapes = [][2]int{{40, 57}, {1, 37}, {37, 1}, {1, 1}, {5, 3}, {256, 273}}

func randFloat(seed uint64, w, h int) *raster.Float {
	rng := noise.NewRNG(seed, 2)
	f := raster.NewFloat(w, h)
	for i := range f.Pix {
		// Mostly zero with sparse votes, like the shadow-evidence field,
		// plus dense noise so every tap contributes.
		if rng.Intn(4) == 0 {
			f.Pix[i] = rng.Float64()
		} else {
			f.Pix[i] = rng.Float64() * 1e-3
		}
	}
	return f
}

// TestGaussianFloatMatchesOracle: the padded, row-major, striped
// Gaussian equals the clamp-per-tap oracle bit for bit at every sigma,
// shape and worker count.
func TestGaussianFloatMatchesOracle(t *testing.T) {
	for _, shape := range oracleShapes {
		w, h := shape[0], shape[1]
		src := randFloat(uint64(w*1000+h), w, h)
		for _, sigma := range []float64{0, 0.5, 1.3, 6, 20, 50} {
			if shape == [2]int{256, 273} && sigma != 20 {
				continue // the full-scene shape checks the filter's σ only
			}
			want := smoothFloatOracle(src, sigma)
			for _, workers := range []int{1, 2, 3} {
				got := gaussianFloat(pool.New(workers), src, sigma)
				for i := range want.Pix {
					if math.Float64bits(got.Pix[i]) != math.Float64bits(want.Pix[i]) {
						t.Fatalf("%dx%d σ=%g workers=%d: pixel %d = %v, oracle %v",
							w, h, sigma, workers, i, got.Pix[i], want.Pix[i])
					}
				}
			}
		}
	}
}

// TestGaussianBlurMatchesOracle: the 8-bit Gaussian, now a float64
// round trip through GaussianFloat, keeps the old bytes.
func TestGaussianBlurMatchesOracle(t *testing.T) {
	for _, shape := range oracleShapes[:5] {
		w, h := shape[0], shape[1]
		src := randGray(uint64(w*31+h), w, h)
		for _, sigma := range []float64{0, 0.5, 2, 20} {
			got, want := GaussianBlur(src, sigma), gaussianBlurOracle(src, sigma)
			if string(got.Pix) != string(want.Pix) {
				t.Fatalf("%dx%d σ=%g: GaussianBlur differs from the oracle", w, h, sigma)
			}
		}
	}
}

// TestDilateErodeMatchOracle: the striped slice-loop running extreme
// equals the closure-based oracle byte for byte in both directions, at
// radii wider than the raster and at every worker count.
func TestDilateErodeMatchOracle(t *testing.T) {
	for _, shape := range oracleShapes {
		w, h := shape[0], shape[1]
		src := randGray(uint64(w*7+h), w, h)
		for _, radius := range []int{1, 3, 28, 60} {
			for _, max := range []bool{true, false} {
				want := slideExtremeOracle(slideExtremeOracle(src, radius, true, max), radius, false, max)
				for _, workers := range []int{1, 2, 3} {
					got := extreme2D(pool.New(workers), src, radius, max)
					if string(got.Pix) != string(want.Pix) {
						t.Fatalf("%dx%d r=%d max=%v workers=%d: differs from the oracle",
							w, h, radius, max, workers)
					}
				}
			}
		}
	}
}

// TestMedianFilterMatchesOracle: resuming the bin scan from the previous
// median, striped over rows, yields the full-rescan oracle's bytes.
func TestMedianFilterMatchesOracle(t *testing.T) {
	for _, shape := range oracleShapes {
		w, h := shape[0], shape[1]
		src := randGray(uint64(w*13+h), w, h)
		for _, radius := range []int{1, 2, 5} {
			want := medianFilterOracle(src, radius)
			for _, workers := range []int{1, 2, 3} {
				got := medianFilter(pool.New(workers), src, radius)
				if string(got.Pix) != string(want.Pix) {
					t.Fatalf("%dx%d r=%d workers=%d: differs from the oracle", w, h, radius, workers)
				}
			}
		}
	}
}
