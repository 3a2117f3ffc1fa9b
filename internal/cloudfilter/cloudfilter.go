// Package cloudfilter implements the paper's thin-cloud and shadow filter
// (§III-A "Filtering Out the Thin Clouds and Shadows"). The paper builds
// the filter from classical OpenCV operations — RGB→HSV conversion, noise
// filtering, bitwise operations, absolute difference, Otsu / truncated /
// binary thresholding, and min-max normalization — and this package
// composes the same operator inventory (implemented in internal/imgproc)
// into a two-stage correction:
//
//  1. Thin-cloud (veil) removal. A thin cloud alpha-blends the surface
//     toward a bright veil color, so the darkest pixel in any
//     neighborhood bounds the veil opacity from below (over open water
//     the observed brightness is almost purely veil). The filter
//     estimates per-pixel opacity from a min-filtered value channel
//     (dark-object subtraction), smooths it to the cloud's spatial
//     scale, gates it where no dark evidence exists (a window of pure
//     bright ice carries no signal — and needs no correction, because a
//     white veil over white ice is invisible), and inverts the blend
//     per channel.
//
//  2. Cloud-shadow removal. A shadow multiplies all channels equally, so
//     it lowers brightness while leaving saturation unchanged. Pixels
//     that are mid-bright but nearly unsaturated can only be shadowed
//     thick ice (clean thin ice is always blue-tinted); each such pixel
//     votes for the local shadow strength, the votes are smoothed into
//     a field, and the attenuation is divided back out.
//
// The residual errors of this filter — faint veil over bright ice,
// shadows falling only on water — are exactly the failure modes the paper
// reports surviving its filter (Fig 13's remaining off-diagonal mass).
//
// Filter is a deterministic pure function of (image, config). Its
// Gaussian smoothing, erosion/dilation and median stripe rows on
// pool.Shared(), and each output value is computed by one stripe in a
// fixed order, so the result is byte-identical at any worker count and
// when the pipeline's stage workers run several scenes at once. It
// operates at full scene scale because its neighborhood statistics need
// more context than a single tile.
package cloudfilter

import (
	"math"

	"seaice/internal/colorspace"
	"seaice/internal/imgproc"
	"seaice/internal/raster"
)

// Config tunes the filter. Defaults follow the scene geometry of the
// Ross Sea dataset (cloud fields ~an order of magnitude smoother than ice
// texture).
type Config struct {
	// VeilColor is the assumed thin-cloud color (R, G, B).
	VeilColor [3]float64
	// DarkRadius is the min-filter window radius for the dark-object
	// veil estimate; it must exceed the ice floe scale so most windows
	// see some dark surface.
	DarkRadius int
	// VeilSmoothSigma smooths the opacity estimate to cloud scale.
	VeilSmoothSigma float64
	// WaterCeil is the brightest value clean open water can take (the
	// paper's water band ends at V=30).
	WaterCeil float64
	// DarkFloor is the typical darkest surface value; the veil
	// estimate treats the window minimum as DarkFloor seen through the
	// veil. Setting it near the true water floor (rather than the band
	// ceiling) keeps the opacity estimate unbiased.
	DarkFloor float64
	// OpacityGate excludes veil-corrected pixels from the shadow
	// stage: residual veil looks exactly like shadowed thick ice
	// (mid-bright, desaturated) and must not feed the shadow field.
	OpacityGate float64
	// MaxOpacity caps the veil estimate; thin clouds are translucent.
	MaxOpacity float64
	// AmbiguousMin is the min-filter level above which a window holds
	// no dark evidence and veil correction is disabled.
	AmbiguousMin float64
	// AmbiguousLow is the min-filter level above which dark evidence
	// becomes ambiguous (a clear field of mid-bright thin ice and a
	// heavy veil over dark water produce the same window minimum); in
	// that band the saturation gate decides.
	AmbiguousLow float64
	// SatGate is the window-mean saturation above which an ambiguous
	// window is judged clear: a veil desaturates every surface below
	// it, while clean thin ice keeps a visible blue tint.
	SatGate uint8
	// SatShadowFloor: an ambiguous window whose mean saturation falls
	// BELOW this is pure (possibly shadowed) thick ice — a veil with
	// dark evidence always leaves moderate residual saturation, while
	// thick ice is nearly gray. Such windows get no veil correction;
	// the shadow stage owns them.
	SatShadowFloor uint8
	// SatGateLow disambiguates the low band (window min between water
	// ceiling and AmbiguousLow): clear dark young ice is strongly
	// saturated blue (S ≈ 107+) and clear water even more so, while a
	// light veil over water already drags the window mean below ~90.
	SatGateLow uint8
	// GrayVMax is the upper brightness bound of the per-pixel gray
	// exemption: a near-gray pixel up to this value is thick ice
	// (possibly shadowed or marginal) and is never veil-inverted.
	// Veiled thin ice bright enough to need inversion keeps S ≥ ~25,
	// so it is not exempted.
	GrayVMax float64
	// SatClearMin is the per-pixel saturation above which a pixel is
	// certainly clear (strongly blue young ice or open water): no
	// surface under a correctable veil keeps S ≥ ~93, so such pixels
	// are exempt from veil inversion even where the opacity field
	// spills past a cloud boundary.
	SatClearMin uint8
	// MinOpacity zeroes negligible veil estimates.
	MinOpacity float64

	// ShadowSatMax and ShadowVMin/ShadowVMax delimit the "shadowed
	// thick ice" evidence region: nearly unsaturated but too dark for
	// clean thick ice.
	ShadowSatMax  uint8
	ShadowVMin    float64
	ShadowVMax    float64
	ThickRefV     float64 // nominal clean thick-ice brightness
	ShadowSmooth  float64 // sigma of the shadow-field smoothing
	MaxShadow     float64 // cap on estimated shadow strength
	MinShadow     float64 // zero negligible shadow estimates
	MinEvidence   float64 // minimum local evidence density to trust the field
	ShadowDarkMin float64 // pixels darker than this are never lifted (water)
}

// DefaultConfig returns the tuning used by every experiment in this repo.
func DefaultConfig() Config {
	return Config{
		VeilColor:       [3]float64{232, 235, 242},
		DarkRadius:      28,
		VeilSmoothSigma: 6,
		WaterCeil:       30,
		DarkFloor:       4,
		OpacityGate:     0.03,
		MaxOpacity:      0.50,
		AmbiguousMin:    135,
		AmbiguousLow:    60,
		SatGate:         52,
		SatShadowFloor:  15,
		SatGateLow:      95,
		GrayVMax:        224,
		SatClearMin:     96,
		MinOpacity:      0.03,

		ShadowSatMax:  18,
		ShadowVMin:    60,
		ShadowVMax:    204,
		ThickRefV:     234,
		ShadowSmooth:  20,
		MaxShadow:     0.45,
		MinShadow:     0.04,
		MinEvidence:   0.02,
		ShadowDarkMin: 34,
	}
}

// Result carries the filtered image and the filter's internal estimates,
// which the tests validate against the generator's ground truth.
type Result struct {
	// Image is the cloud- and shadow-corrected scene.
	Image *raster.RGB
	// CloudMask marks pixels the filter judged veiled or shadowed
	// (255 = disturbed), via Otsu binarization of the combined
	// disturbance field.
	CloudMask *raster.Gray
	// Opacity is the estimated veil alpha per pixel.
	Opacity *raster.Float
	// Shadow is the estimated multiplicative shadow strength per pixel.
	Shadow *raster.Float
}

// Filter runs the two-stage thin-cloud and shadow correction.
func Filter(img *raster.RGB, cfg Config) *Result {
	w, h := img.W, img.H
	srcHSV := colorspace.ToHSV(img)
	val := &raster.Gray{W: w, H: h, Pix: srcHSV.Val}
	sat := &raster.Gray{W: w, H: h, Pix: srcHSV.Sat}
	// Per-pixel saturation decisions must not ride on sensor noise
	// (±1.6/channel moves S by ~±5 on mid-bright pixels); a 3×3 median
	// is the paper pipeline's "noise filtering" step.
	satDenoised := imgproc.MedianFilter(sat, 1)

	// ---- stage 1: thin-cloud veil ----
	// Dark-object veil estimate: min-filter the value channel, then
	// subtract the water ceiling (absolute difference against the
	// darkest legitimate surface) and rescale by the veil brightness.
	minV := imgproc.Erode(val, cfg.DarkRadius)
	// Cap implausible highs with a truncated threshold before the
	// division; windows of pure bright ice are handled by the gate.
	minV = imgproc.Threshold(minV, 250, 255, imgproc.ThreshTrunc)
	// Window-mean saturation over COLORFUL pixels only. Thick ice is
	// near-gray; including it in the mean would let "shadowed thick +
	// clean blue ice" masquerade as "veil over dark water". Excluding
	// gray pixels, clean surfaces keep mean S ≥ ~95 (dark young ice)
	// or ≥ ~56 (bright young ice), while anything under a veil drops
	// to ≤ ~87 (light veil over water) and ≤ ~47 (moderate veil).
	satNum := raster.NewFloat(w, h)
	satDen := raster.NewFloat(w, h)
	for i, s := range sat.Pix {
		if s >= cfg.SatShadowFloor {
			satNum.Pix[i] = float64(s)
			satDen.Pix[i] = 1
		}
	}
	satNumM := imgproc.BoxMeanFloat(satNum, cfg.DarkRadius)
	satDenM := imgproc.BoxMeanFloat(satDen, cfg.DarkRadius)
	// meanS[i] is the colorful-pixel mean; windows that are almost
	// entirely gray (< 5% colorful) report 0, which the gates read as
	// "pure thick ice, no veil evidence".
	meanS := raster.NewGray(w, h)
	for i := range meanS.Pix {
		if satDenM.Pix[i] >= 0.05 {
			m := satNumM.Pix[i] / satDenM.Pix[i]
			if m > 255 {
				m = 255
			}
			meanS.Pix[i] = uint8(m + 0.5)
		}
	}

	veilV := (cfg.VeilColor[0] + cfg.VeilColor[1] + cfg.VeilColor[2]) / 3
	opacityRaw := raster.NewFloat(w, h)
	for i, v := range minV.Pix {
		fv := float64(v)
		if fv > cfg.AmbiguousMin {
			continue // no dark evidence in window; veil invisible here
		}
		if fv > cfg.AmbiguousLow {
			if meanS.Pix[i] > cfg.SatGate {
				continue // window keeps saturated surfaces ⇒ no veil
			}
			if meanS.Pix[i] < cfg.SatShadowFloor {
				continue // near-gray window ⇒ (shadowed) thick ice
			}
		} else if fv > cfg.WaterCeil && (meanS.Pix[i] == 0 || meanS.Pix[i] > cfg.SatGateLow) {
			// Either the window is saturated blue dark ice (clear,
			// not a light veil) or it has no colorful pixels at all —
			// and a veil with dark evidence always leaves colorful
			// residue, so an all-gray window carries no veil.
			continue
		}
		a := (fv - cfg.DarkFloor) / (veilV - cfg.DarkFloor)
		if a < 0 {
			a = 0
		}
		if a > cfg.MaxOpacity {
			a = cfg.MaxOpacity
		}
		opacityRaw.Pix[i] = a
	}
	// The erosion sees the window's darkest pixel, so the raw estimate
	// collapses to zero within DarkRadius of every cloud boundary (the
	// window leaks onto clear ground). Dilating by the same radius
	// restores the estimate's support — an erode-then-dilate pair, the
	// morphological opening of the opacity field — and the Gaussian
	// then irons window artifacts to the cloud's spatial scale.
	opacity := smoothFloat(dilateFloat(opacityRaw, cfg.DarkRadius), cfg.VeilSmoothSigma)
	for i, a := range opacity.Pix {
		if a < cfg.MinOpacity {
			opacity.Pix[i] = 0
		} else if a > cfg.MaxOpacity {
			opacity.Pix[i] = cfg.MaxOpacity
		}
	}

	// isGrayMid flags pixels that can only be shadowed thick ice: a
	// gray (near-zero saturation) pixel at mid brightness. Every
	// veil-affected pixel with dark evidence keeps residual saturation
	// (water and thin ice are blue; the veil color itself is slightly
	// blue), so these pixels belong to the shadow stage and must not
	// be darkened by the veil inversion.
	isGrayMid := func(s, v uint8) bool {
		return s < cfg.SatShadowFloor && float64(v) >= cfg.AmbiguousLow && float64(v) <= cfg.GrayVMax
	}

	// Invert the blend per channel: observed = s·(1-a) + veil·a.
	corrected := raster.NewRGB(w, h)
	for i := 0; i < w*h; i++ {
		a := opacity.Pix[i]
		if a <= 0 || isGrayMid(satDenoised.Pix[i], srcHSV.Val[i]) || satDenoised.Pix[i] >= cfg.SatClearMin {
			corrected.Pix[3*i] = img.Pix[3*i]
			corrected.Pix[3*i+1] = img.Pix[3*i+1]
			corrected.Pix[3*i+2] = img.Pix[3*i+2]
			continue
		}
		for ch := 0; ch < 3; ch++ {
			obs := float64(img.Pix[3*i+ch])
			s := (obs - cfg.VeilColor[ch]*a) / (1 - a)
			corrected.Pix[3*i+ch] = clamp8(s)
		}
	}

	// ---- stage 2: cloud shadow ----
	hsv := colorspace.ToHSV(corrected)
	evidence := raster.NewFloat(w, h)
	weight := raster.NewFloat(w, h)
	for i := 0; i < w*h; i++ {
		if opacity.Pix[i] > cfg.OpacityGate && !isGrayMid(satDenoised.Pix[i], srcHSV.Val[i]) {
			continue // veiled region: residue must not vote for shadow
		}
		v := float64(hsv.Val[i])
		if satDenoised.Pix[i] <= cfg.ShadowSatMax && v >= cfg.ShadowVMin && v <= cfg.ShadowVMax {
			sh := 1 - v/cfg.ThickRefV
			if sh < 0 {
				sh = 0
			}
			if sh > cfg.MaxShadow {
				sh = cfg.MaxShadow
			}
			evidence.Pix[i] = sh
			weight.Pix[i] = 1
		}
	}
	evSmooth := smoothFloat(evidence, cfg.ShadowSmooth)
	wSmooth := smoothFloat(weight, cfg.ShadowSmooth)
	shadow := raster.NewFloat(w, h)
	for i := 0; i < w*h; i++ {
		if wSmooth.Pix[i] < cfg.MinEvidence {
			continue
		}
		if opacity.Pix[i] > cfg.OpacityGate && !isGrayMid(satDenoised.Pix[i], srcHSV.Val[i]) {
			continue // veil correction already handled this pixel
		}
		sh := evSmooth.Pix[i] / wSmooth.Pix[i]
		if sh < cfg.MinShadow {
			continue
		}
		if sh > cfg.MaxShadow {
			sh = cfg.MaxShadow
		}
		shadow.Pix[i] = sh
	}

	out := raster.NewRGB(w, h)
	for i := 0; i < w*h; i++ {
		sh := shadow.Pix[i]
		v := float64(hsv.Val[i])
		if sh <= 0 || v < cfg.ShadowDarkMin {
			out.Pix[3*i] = corrected.Pix[3*i]
			out.Pix[3*i+1] = corrected.Pix[3*i+1]
			out.Pix[3*i+2] = corrected.Pix[3*i+2]
			continue
		}
		k := 1 / (1 - sh)
		out.Pix[3*i] = clamp8(float64(corrected.Pix[3*i]) * k)
		out.Pix[3*i+1] = clamp8(float64(corrected.Pix[3*i+1]) * k)
		out.Pix[3*i+2] = clamp8(float64(corrected.Pix[3*i+2]) * k)
	}

	// ---- disturbance mask ----
	// Combine both disturbance fields into an 8-bit image and Otsu-
	// binarize it (the paper's Otsu + binary threshold step). Guard the
	// clear-sky case: if the field is essentially empty, Otsu on noise
	// would hallucinate a mask.
	dist := raster.NewGray(w, h)
	for i := 0; i < w*h; i++ {
		d := opacity.Pix[i] + shadow.Pix[i]
		if d > 1 {
			d = 1
		}
		dist.Pix[i] = uint8(d*255 + 0.5)
	}
	// Otsu adapts to each scene's disturbance distribution, but its
	// level is floored at 5% combined disturbance (the convention the
	// ground-truth masks use) so the dilation halo of barely-veiled
	// pixels does not leak into the mask, and so a clear scene's noise
	// cannot be split into a fake mask.
	level := imgproc.OtsuThreshold(dist)
	if level < 13 { // 5% of full disturbance
		level = 13
	}
	mask := imgproc.Threshold(dist, level, 255, imgproc.ThreshBinary)

	return &Result{Image: out, CloudMask: mask, Opacity: opacity, Shadow: shadow}
}

// FilterDefault runs the filter with DefaultConfig.
func FilterDefault(img *raster.RGB) *Result {
	return Filter(img, DefaultConfig())
}

// dilateFloat computes a sliding-window maximum of a float raster in
// [0,1] via 8-bit quantization (1/500 steps) and the grayscale dilation
// in imgproc.
func dilateFloat(src *raster.Float, radius int) *raster.Float {
	q := raster.NewGray(src.W, src.H)
	for i, v := range src.Pix {
		s := v * 500
		if s > 255 {
			s = 255
		}
		if s < 0 {
			s = 0
		}
		q.Pix[i] = uint8(s + 0.5)
	}
	d := imgproc.Dilate(q, radius)
	out := raster.NewFloat(src.W, src.H)
	for i, v := range d.Pix {
		out.Pix[i] = float64(v) / 500
	}
	return out
}

// smoothFloat applies the separable Gaussian of imgproc.GaussianFloat to
// a float raster. The kernel radius follows the 3σ rule.
func smoothFloat(src *raster.Float, sigma float64) *raster.Float {
	return imgproc.GaussianFloat(src, sigma)
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(math.Round(v))
}
