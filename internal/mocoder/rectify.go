package mocoder

import (
	"math"

	"microlonys/internal/emblem"
	"microlonys/raster"
)

// rectifySS is Rectify's supersampling factor per axis: 3×3 taps
// approximate area integration over each output pixel's footprint in the
// source — rectification usually downscales (the scan is higher
// resolution than the nominal grid), and point sampling there would
// alias module edges into the data field.
const rectifySS = 3

// rectTap is one column supersampling tap: the emblem-relative grid
// coordinate u, its complement nu = 1-u, and whether it lies on the
// emblem (0 ≤ u ≤ 1) rather than in the white quiet zone.
type rectTap struct {
	u, nu float64
	in    bool
}

// Rectify resamples a scanned frame into the axis-aligned,
// nominal-resolution image the archived MODecode program expects.
//
// This is the "image preprocessing" step the Bootstrap assigns to the
// future user (§3.3: "the user converts the images containing emblems
// into a linear flat array of pixel intensities ... Any standard image
// handling libraries can be used"): locate the emblem's black border,
// undo rotation/scale by resampling onto the nominal grid, and hand the
// flat pixel array to the emulated decoder. All decoding — threshold,
// demodulation, error correction — still happens inside the archived
// instruction stream; this routine only normalises geometry, which any
// era's image tooling can do.
func Rectify(img *raster.Gray, l emblem.Layout) (*raster.Gray, error) {
	return RectifyWith(&DecodeScratch{}, nil, img, l)
}

// RectifyWith is Rectify through reusable state, for callers rectifying
// many frames in a loop (the emulated restore threads one per worker).
// The frame-detection buffers and the per-column tap table come from s.
// The result is written into dst, whose pixel buffer is reused when it
// is large enough, and returned; a nil dst allocates a new image. dst
// must not share pixels with img. In steady state it allocates nothing.
// Output is byte-identical to Rectify.
func RectifyWith(s *DecodeScratch, dst *raster.Gray, img *raster.Gray, l emblem.Layout) (*raster.Gray, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	thr := img.OtsuThreshold()
	corners, err := findFrame(s, img, thr, l)
	if err != nil {
		return nil, err
	}
	_, m, err := orient(s, img, thr, corners, l)
	if err != nil {
		return nil, err
	}
	s.ensureRectTabs(l)

	ow, oh := l.ImageW(), l.ImageH()
	if dst == nil {
		dst = &raster.Gray{}
	}
	dst.W, dst.H = ow, oh
	if cap(dst.Pix) < ow*oh {
		dst.Pix = make([]byte, ow*oh)
	}
	dst.Pix = dst.Pix[:ow*oh]

	px := float64(l.PxPerModule)
	q := float64(emblem.QuietModules)
	gh := float64(l.GridH())
	w, h, pix := img.W, img.H, img.Pix
	taps := s.rectTaps
	for y := 0; y < oh; y++ {
		var vs, nvs [rectifySS]float64
		var vin [rectifySS]bool
		for sy := range vs {
			v := ((float64(y)+(float64(sy)+0.5)/rectifySS)/px - q) / gh
			vs[sy], nvs[sy], vin[sy] = v, 1-v, v >= 0 && v <= 1
		}
		row := dst.Pix[y*ow : y*ow+ow]
		for x := range row {
			xt := taps[x*rectifySS : x*rectifySS+rectifySS]
			var sum float64
			for sy, v := range vs {
				for _, t := range xt {
					if !t.in || !vin[sy] {
						sum += 255 // quiet zone is white
						continue
					}
					// mapUV and the interior of raster.SampleBilinear,
					// expanded inline with the same expressions in the
					// same order (as sampleOff does), so every tap is
					// bit-identical to the reference; the four bilinear
					// weights are shared between the x and y coordinates,
					// and 1-u, 1-v and the pixel conversions come from
					// tables holding exactly those values.
					u, nu, nv := t.u, t.nu, nvs[sy]
					w00, w10, w01, w11 := nu*nv, u*nv, nu*v, u*v
					ix := w00*m.p00.x + w10*m.p10.x + w01*m.p01.x + w11*m.p11.x
					iy := w00*m.p00.y + w10*m.p10.y + w01*m.p01.y + w11*m.p11.y
					x0 := int(math.Floor(ix))
					y0 := int(math.Floor(iy))
					if x0 >= 0 && y0 >= 0 && x0+1 < w && y0+1 < h {
						fx := ix - float64(x0)
						fy := iy - float64(y0)
						i := y0*w + x0
						p00 := byteF[pix[i]]
						p10 := byteF[pix[i+1]]
						p01 := byteF[pix[i+w]]
						p11 := byteF[pix[i+w+1]]
						sum += p00*(1-fx)*(1-fy) + p10*fx*(1-fy) + p01*(1-fx)*fy + p11*fx*fy
					} else {
						sum += img.SampleBilinear(ix, iy)
					}
				}
			}
			row[x] = clampToByte(sum / (rectifySS * rectifySS))
		}
	}
	return dst, nil
}

// ensureRectTabs refreshes Rectify's per-column tap table: entry
// [x*rectifySS+sx] holds exactly the grid coordinate the reference
// computes inline for output column x and tap sx, its complement and its
// quiet-zone test, so a row's inner loop does no division.
func (s *DecodeScratch) ensureRectTabs(l emblem.Layout) {
	if s.rectTaps != nil && s.rectLayout == l {
		return
	}
	s.rectLayout = l
	n := rectifySS * l.ImageW()
	if cap(s.rectTaps) < n {
		s.rectTaps = make([]rectTap, n)
	}
	s.rectTaps = s.rectTaps[:n]
	px := float64(l.PxPerModule)
	q := float64(emblem.QuietModules)
	gw := float64(l.GridW())
	for x := 0; x < l.ImageW(); x++ {
		for sx := 0; sx < rectifySS; sx++ {
			u := ((float64(x)+(float64(sx)+0.5)/rectifySS)/px - q) / gw
			s.rectTaps[x*rectifySS+sx] = rectTap{u: u, nu: 1 - u, in: u >= 0 && u <= 1}
		}
	}
}

func clampToByte(v float64) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// byteF maps a pixel byte to its float64 value: a load instead of an
// integer conversion in Rectify's inner loop.
var byteF = func() (t [256]float64) {
	for i := range t {
		t[i] = float64(i)
	}
	return
}()
