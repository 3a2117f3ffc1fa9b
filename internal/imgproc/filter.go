// Package imgproc is the workflow's classical image-processing toolkit —
// a from-scratch Go replacement for the OpenCV operations the paper's
// thin-cloud/shadow filter and color segmentation depend on: box, Gaussian
// and median smoothing, absolute difference, bitwise mask algebra, min-max
// normalization, binary/truncated/Otsu thresholding, and grayscale
// morphology. All operators use OpenCV conventions (8-bit data, masks with
// 0/255 values, border replication for neighborhoods).
//
// Every operator is a deterministic pure function of its input rasters
// and parameters (no RNG), so compositions like the cloud filter are
// bit-reproducible and safe to run concurrently on different images —
// the property the pipeline's parallel label stage relies on. The
// neighborhood operators that dominate the filter's cost (Gaussian,
// median, erosion/dilation) stripe rows on pool.Shared(); each output
// value is computed by one stripe in a fixed order, so results are
// byte-identical at any worker count.
package imgproc

import (
	"fmt"
	"math"

	"seaice/internal/pool"
	"seaice/internal/raster"
)

// clampIdx clamps a coordinate to [0, n) — border replication.
func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// BoxBlur smooths with a (2r+1)×(2r+1) mean filter using a separable
// two-pass running sum, O(1) per pixel regardless of radius.
func BoxBlur(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	tmp := make([]float64, w*h)
	dst := raster.NewGray(w, h)
	win := float64(2*radius + 1)

	// horizontal pass
	for y := 0; y < h; y++ {
		row := src.Pix[y*w : (y+1)*w]
		sum := 0.0
		for k := -radius; k <= radius; k++ {
			sum += float64(row[clampIdx(k, w)])
		}
		for x := 0; x < w; x++ {
			tmp[y*w+x] = sum
			sum -= float64(row[clampIdx(x-radius, w)])
			sum += float64(row[clampIdx(x+radius+1, w)])
		}
	}
	// vertical pass
	for x := 0; x < w; x++ {
		sum := 0.0
		for k := -radius; k <= radius; k++ {
			sum += tmp[clampIdx(k, h)*w+x]
		}
		for y := 0; y < h; y++ {
			dst.Pix[y*w+x] = clampU8(sum / (win * win))
			sum -= tmp[clampIdx(y-radius, h)*w+x]
			sum += tmp[clampIdx(y+radius+1, h)*w+x]
		}
	}
	return dst
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

// GaussianKernel returns a normalized 1-D Gaussian kernel with the given
// standard deviation; the radius follows OpenCV's rule of 3σ rounded up.
func GaussianKernel(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	radius := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range k {
		d := float64(i - radius)
		k[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += k[i]
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// GaussianBlur smooths with a separable Gaussian of the given sigma. It
// is GaussianFloat on the exact float64 image of src, rounded back to
// 8 bits.
func GaussianBlur(src *raster.Gray, sigma float64) *raster.Gray {
	if sigma <= 0 {
		return src.Clone()
	}
	sm := GaussianFloat(raster.FromGray(src), sigma)
	dst := raster.NewGray(src.W, src.H)
	for i, v := range sm.Pix {
		dst.Pix[i] = clampU8(v)
	}
	return dst
}

// stripeRows is the fewest rows a worker takes in a striped pass.
const stripeRows = 16

// GaussianFloat smooths a float raster with a separable Gaussian of the
// given sigma (3σ radius, border replication). Every output starts at 0
// and adds kv·src over the taps in kernel order, rows first, then
// columns; each pixel's sum is owned by one stripe of rows on
// pool.Shared(), so the result is bit-identical at any worker count.
func GaussianFloat(src *raster.Float, sigma float64) *raster.Float {
	return gaussianFloat(pool.Shared(), src, sigma)
}

func gaussianFloat(p *pool.Pool, src *raster.Float, sigma float64) *raster.Float {
	if sigma <= 0 {
		return src.Clone()
	}
	k := GaussianKernel(sigma)
	r := len(k) / 2
	w, h := src.W, src.H
	tmp := raster.NewFloat(w, h)
	dst := raster.NewFloat(w, h)

	// Horizontal pass: each row is copied into a buffer padded with its
	// edge values, so no tap needs a clamp.
	p.MustMapRanges(h, stripeRows, func(lo, hi int) {
		pad := make([]float64, w+2*r)
		for y := lo; y < hi; y++ {
			row := src.Pix[y*w : (y+1)*w]
			for i := 0; i < r; i++ {
				pad[i] = row[0]
				pad[r+w+i] = row[w-1]
			}
			copy(pad[r:r+w], row)
			accumulateTaps(tmp.Pix[y*w:(y+1)*w], k, func(i int) []float64 { return pad[i : i+w] })
		}
	})
	// Vertical pass, row-major: output row y sums whole source rows.
	p.MustMapRanges(h, stripeRows, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			accumulateTaps(dst.Pix[y*w:(y+1)*w], k, func(i int) []float64 {
				yy := clampIdx(y+i-r, h)
				return tmp.Pix[yy*w : (yy+1)*w]
			})
		}
	})
	return dst
}

// accumulateTaps adds k[i]·in(i)[x] into out[x] for every tap i in
// order. Taps are taken eight at a time with the running sum held in a
// register; the additions still happen one tap after another, so the
// bits are those of the one-tap loop.
func accumulateTaps(out, k []float64, in func(i int) []float64) {
	n := len(out)
	i := 0
	for ; i+8 <= len(k); i += 8 {
		k0, k1, k2, k3, k4, k5, k6, k7 := k[i], k[i+1], k[i+2], k[i+3], k[i+4], k[i+5], k[i+6], k[i+7]
		s0, s1, s2, s3 := in(i)[:n], in(i + 1)[:n], in(i + 2)[:n], in(i + 3)[:n]
		s4, s5, s6, s7 := in(i + 4)[:n], in(i + 5)[:n], in(i + 6)[:n], in(i + 7)[:n]
		for x := range out {
			s := out[x]
			s += k0 * s0[x]
			s += k1 * s1[x]
			s += k2 * s2[x]
			s += k3 * s3[x]
			s += k4 * s4[x]
			s += k5 * s5[x]
			s += k6 * s6[x]
			s += k7 * s7[x]
			out[x] = s
		}
	}
	for ; i < len(k); i++ {
		kv, src := k[i], in(i)[:n]
		for x := range out {
			out[x] += kv * src[x]
		}
	}
}

// MedianFilter applies a (2r+1)×(2r+1) median using a 256-bin histogram
// slid along each row, the standard constant-time-per-update approach for
// 8-bit data. Each step resumes the bin scan from the previous median
// (Huang's algorithm), and rows are striped on pool.Shared(); the median
// is exact, so the result does not depend on the worker count.
func MedianFilter(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	return medianFilter(pool.Shared(), src, radius)
}

func medianFilter(p *pool.Pool, src *raster.Gray, radius int) *raster.Gray {
	w, h := src.W, src.H
	dst := raster.NewGray(w, h)
	win := (2*radius + 1) * (2*radius + 1)
	half := win / 2

	p.MustMapRanges(h, stripeRows, func(lo, hi int) {
		var hist [256]int
		for y := lo; y < hi; y++ {
			hist = [256]int{}
			for dy := -radius; dy <= radius; dy++ {
				sy := clampIdx(y+dy, h)
				for dx := -radius; dx <= radius; dx++ {
					hist[src.Pix[sy*w+clampIdx(dx, w)]]++
				}
			}
			// med is the smallest value whose cumulative count exceeds
			// half; below counts the window's values under med.
			med, below := 0, 0
			for x := 0; x < w; x++ {
				for below > half {
					med--
					below -= hist[med]
				}
				for below+hist[med] <= half {
					below += hist[med]
					med++
				}
				dst.Pix[y*w+x] = uint8(med)
				if x+1 == w {
					break
				}
				// slide window right
				outX := clampIdx(x-radius, w)
				inX := clampIdx(x+radius+1, w)
				for dy := -radius; dy <= radius; dy++ {
					sy := clampIdx(y+dy, h)
					vo, vi := src.Pix[sy*w+outX], src.Pix[sy*w+inX]
					hist[vo]--
					hist[vi]++
					if int(vo) < med {
						below--
					}
					if int(vi) < med {
						below++
					}
				}
			}
		}
	})
	return dst
}

// AbsDiff computes |a-b| per pixel. The rasters must be the same size.
func AbsDiff(a, b *raster.Gray) (*raster.Gray, error) {
	if a.W != b.W || a.H != b.H {
		return nil, fmt.Errorf("imgproc: AbsDiff size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	out := raster.NewGray(a.W, a.H)
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		out.Pix[i] = uint8(d)
	}
	return out, nil
}

// BoxMeanFloat computes the per-pixel mean of a float raster over a
// (2r+1)² window clipped at the borders, via integral images.
func BoxMeanFloat(src *raster.Float, radius int) *raster.Float {
	if radius <= 0 {
		return src.Clone()
	}
	w, h := src.W, src.H
	integ := make([]float64, (w+1)*(h+1))
	for y := 0; y < h; y++ {
		rowSum := 0.0
		for x := 0; x < w; x++ {
			rowSum += src.Pix[y*w+x]
			integ[(y+1)*(w+1)+(x+1)] = integ[y*(w+1)+(x+1)] + rowSum
		}
	}
	out := raster.NewFloat(w, h)
	for y := 0; y < h; y++ {
		y0, y1 := clampIdx(y-radius, h), clampIdx(y+radius, h)
		for x := 0; x < w; x++ {
			x0, x1 := clampIdx(x-radius, w), clampIdx(x+radius, w)
			n := float64((x1 - x0 + 1) * (y1 - y0 + 1))
			s := integ[(y1+1)*(w+1)+(x1+1)] - integ[y0*(w+1)+(x1+1)] - integ[(y1+1)*(w+1)+x0] + integ[y0*(w+1)+x0]
			out.Pix[y*w+x] = s / n
		}
	}
	return out
}

// LocalVariance computes the per-pixel variance over a (2r+1)² window,
// returned as a float raster. Thin clouds are locally smooth (low
// variance) while sea-ice texture is rough; the cloud detector uses this
// contrast.
func LocalVariance(src *raster.Gray, radius int) *raster.Float {
	w, h := src.W, src.H
	// Compute E[x] and E[x²] with float accumulation via integral images.
	integ := make([]float64, (w+1)*(h+1))
	integSq := make([]float64, (w+1)*(h+1))
	for y := 0; y < h; y++ {
		rowSum := 0.0
		rowSumSq := 0.0
		for x := 0; x < w; x++ {
			v := float64(src.Pix[y*w+x])
			rowSum += v
			rowSumSq += v * v
			integ[(y+1)*(w+1)+(x+1)] = integ[y*(w+1)+(x+1)] + rowSum
			integSq[(y+1)*(w+1)+(x+1)] = integSq[y*(w+1)+(x+1)] + rowSumSq
		}
	}
	rectSum := func(tab []float64, x0, y0, x1, y1 int) float64 { // inclusive box
		return tab[(y1+1)*(w+1)+(x1+1)] - tab[y0*(w+1)+(x1+1)] - tab[(y1+1)*(w+1)+x0] + tab[y0*(w+1)+x0]
	}
	out := raster.NewFloat(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			x0, x1 := clampIdx(x-radius, w), clampIdx(x+radius, w)
			y0, y1 := clampIdx(y-radius, h), clampIdx(y+radius, h)
			n := float64((x1 - x0 + 1) * (y1 - y0 + 1))
			s := rectSum(integ, x0, y0, x1, y1)
			s2 := rectSum(integSq, x0, y0, x1, y1)
			m := s / n
			out.Pix[y*w+x] = s2/n - m*m
		}
	}
	return out
}
