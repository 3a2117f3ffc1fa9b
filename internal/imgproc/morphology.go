package imgproc

import (
	"seaice/internal/pool"
	"seaice/internal/raster"
)

// Dilate is grayscale dilation by a square structuring element of the
// given radius: each output pixel is the maximum of src over its
// (2r+1)² window, clipped at the borders (on a 0/255 mask this grows the
// nonzero regions). It runs as two separable monotone-deque running-max
// passes, O(1) amortized per pixel, striped on pool.Shared(); max is
// exact, so the result does not depend on the worker count.
func Dilate(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	return extreme2D(pool.Shared(), src, radius, true)
}

// Erode is grayscale erosion, the running minimum counterpart of Dilate.
func Erode(src *raster.Gray, radius int) *raster.Gray {
	if radius <= 0 {
		return src.Clone()
	}
	return extreme2D(pool.Shared(), src, radius, false)
}

// Open erodes then dilates, removing specks smaller than the element.
func Open(src *raster.Gray, radius int) *raster.Gray {
	return Dilate(Erode(src, radius), radius)
}

// Close dilates then erodes, filling holes smaller than the element.
func Close(src *raster.Gray, radius int) *raster.Gray {
	return Erode(Dilate(src, radius), radius)
}

// extreme2D computes the (2r+1)² running max (or min) as a row pass that
// writes its result transposed, then the same row pass over the
// transposed rows (the source columns), transposed back. Both passes
// walk memory row by row.
func extreme2D(p *pool.Pool, src *raster.Gray, radius int, max bool) *raster.Gray {
	w, h := src.W, src.H
	cols := make([]uint8, w*h) // column x of the row pass is cols[x*h:(x+1)*h]
	p.MustMapRanges(h, stripeRows, func(lo, hi int) {
		out, dq := make([]uint8, w), make([]int32, w)
		for y := lo; y < hi; y++ {
			runExtreme(src.Pix[y*w:(y+1)*w], out, dq, radius, max)
			for x, v := range out {
				cols[x*h+y] = v
			}
		}
	})
	dst := raster.NewGray(w, h)
	p.MustMapRanges(w, stripeRows, func(lo, hi int) {
		out, dq := make([]uint8, h), make([]int32, h)
		for x := lo; x < hi; x++ {
			runExtreme(cols[x*h:(x+1)*h], out, dq, radius, max)
			for y, v := range out {
				dst.Pix[y*w+x] = v
			}
		}
	})
	return dst
}

// runExtreme sets out[i] to the max (or min) of in[i-r..i+r] clipped to
// the slice. dq, as long as in, holds a deque of indices whose values
// are monotone, so each element is pushed and popped at most once.
func runExtreme(in, out []uint8, dq []int32, r int, max bool) {
	n := len(in)
	head, tail := 0, 0
	for i := 0; i < n+r; i++ {
		if i < n {
			v := in[i]
			if max {
				for tail > head && v >= in[dq[tail-1]] {
					tail--
				}
			} else {
				for tail > head && v <= in[dq[tail-1]] {
					tail--
				}
			}
			dq[tail] = int32(i)
			tail++
		}
		if o := i - r; o >= 0 {
			for int(dq[head]) < o-r {
				head++
			}
			out[o] = in[dq[head]]
		}
	}
}

// ConnectedComponents labels 4-connected foreground regions of a binary
// mask. It returns the per-pixel component id (0 = background) and the
// number of components found. Used to reason about cloud blobs and lead
// structures in the synthetic-data validation tests.
func ConnectedComponents(mask *raster.Gray) ([]int32, int) {
	w, h := mask.W, mask.H
	labels := make([]int32, w*h)
	next := int32(0)
	stack := make([]int32, 0, 1024)

	for start := 0; start < w*h; start++ {
		if mask.Pix[start] == 0 || labels[start] != 0 {
			continue
		}
		next++
		labels[start] = next
		stack = append(stack[:0], int32(start))
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x := int(p) % w
			y := int(p) / w
			try := func(nx, ny int) {
				if nx < 0 || nx >= w || ny < 0 || ny >= h {
					return
				}
				q := ny*w + nx
				if mask.Pix[q] != 0 && labels[q] == 0 {
					labels[q] = next
					stack = append(stack, int32(q))
				}
			}
			try(x-1, y)
			try(x+1, y)
			try(x, y-1)
			try(x, y+1)
		}
	}
	return labels, int(next)
}
