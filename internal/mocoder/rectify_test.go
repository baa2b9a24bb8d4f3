package mocoder

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"microlonys/internal/emblem"
	"microlonys/raster"
)

// This file pins the table-driven RectifyWith to the original Rectify,
// kept verbatim below as the reference formulation: a fresh scratch per
// call, a fresh output image, per-tap divisions, mapUV and
// raster.SampleBilinear for every tap. Every output byte and every error
// must match.

// rectifyRef is the original Rectify body, verbatim.
func rectifyRef(img *raster.Gray, l emblem.Layout) (*raster.Gray, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	thr := img.OtsuThreshold()
	ds := &DecodeScratch{}
	corners, err := findFrame(ds, img, thr, l)
	if err != nil {
		return nil, err
	}
	_, mapper, err := orient(ds, img, thr, corners, l)
	if err != nil {
		return nil, err
	}

	px := float64(l.PxPerModule)
	q := float64(emblem.QuietModules)
	gw, gh := float64(l.GridW()), float64(l.GridH())
	out := raster.New(l.ImageW(), l.ImageH())
	const ss = 3
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			var sum float64
			n := 0
			for sy := 0; sy < ss; sy++ {
				v := ((float64(y)+(float64(sy)+0.5)/ss)/px - q) / gh
				for sx := 0; sx < ss; sx++ {
					u := ((float64(x)+(float64(sx)+0.5)/ss)/px - q) / gw
					if u < 0 || u > 1 || v < 0 || v > 1 {
						sum += 255 // quiet zone is white
					} else {
						p := mapper.mapUV(u, v)
						sum += img.SampleBilinear(p.x, p.y)
					}
					n++
				}
			}
			out.Pix[y*out.W+x] = clampToByte(sum / float64(n))
		}
	}
	return out, nil
}

// rotateDeg rotates img about its centre by deg degrees, as a skewed
// page or film transport presents it to the scanner.
func rotateDeg(img *raster.Gray, deg float64) *raster.Gray {
	theta := deg * math.Pi / 180
	cx, cy := float64(img.W)/2, float64(img.H)/2
	sin, cos := math.Sin(theta), math.Cos(theta)
	return img.Warp(func(x, y float64) (float64, float64) {
		dx, dy := x-cx, y-cy
		return cx + cos*dx - sin*dy, cy + sin*dx + cos*dy
	})
}

// cropMargin cuts m pixels off every side of img.
func cropMargin(img *raster.Gray, m int) *raster.Gray {
	out := raster.New(img.W-2*m, img.H-2*m)
	for y := 0; y < out.H; y++ {
		copy(out.Pix[y*out.W:(y+1)*out.W], img.Pix[(y+m)*img.W+m:])
	}
	return out
}

// checkRectify rectifies img through the shared scratch and destination
// and through the reference, and compares every byte and the error. It
// returns the (reused) destination.
func checkRectify(t *testing.T, s *DecodeScratch, dst, img *raster.Gray, l emblem.Layout, label string) *raster.Gray {
	t.Helper()
	got, gotErr := RectifyWith(s, dst, img, l)
	want, wantErr := rectifyRef(img, l)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: RectifyWith err %v, reference err %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: RectifyWith err %q, reference err %q", label, gotErr, wantErr)
		}
		return dst
	}
	if !raster.Equal(got, want) {
		t.Fatalf("%s: %d of %d pixels differ from the reference", label, raster.DiffCount(got, want), len(want.Pix))
	}
	return got
}

// TestRectifyWithDifferential pins RectifyWith to the reference on the
// geometries the emulated restore meets — sub-degree to 1.5° skew in
// both directions, a 5 px scan rectified to 3 px (the microfilm path),
// noise, taps on the image border and a fogged frame — with one scratch
// and one destination reused throughout, so state leaking from frame to
// frame or layout to layout would be caught.
func TestRectifyWithDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	var s DecodeScratch
	var dst *raster.Gray
	for _, l := range []emblem.Layout{
		{DataW: 120, DataH: 90, PxPerModule: 3},
		{DataW: 64, DataH: 48, PxPerModule: 5},
	} {
		payload := make([]byte, Capacity(l))
		rng.Read(payload)
		img, err := Encode(payload, emblem.Header{Kind: emblem.KindRaw}, l)
		if err != nil {
			t.Fatal(err)
		}
		// The emulated restore rectifies onto the 3 px grid whatever the
		// scan's resolution.
		rl := l
		rl.PxPerModule = 3

		for _, deg := range []float64{0, 0.1, -0.1, 0.7, 1.5} {
			dst = checkRectify(t, &s, dst, rotateDeg(img, deg), rl, "rotated")
		}
		dst = checkRectify(t, &s, dst, jitterImage(rotateDeg(img, 0.3), 5, 0.8, 6), rl, "jitter+noise")
		dst = checkRectify(t, &s, dst, img.Rotate90(1), rl, "quarter turn")

		// Crop the quiet zone away: the detected border sits half a pixel
		// outside the image, so the outermost taps take the bilinear
		// border path instead of the inlined interior one.
		cropped := cropMargin(img, emblem.QuietModules*l.PxPerModule)
		corners, err := findFrame(&DecodeScratch{}, cropped, cropped.OtsuThreshold(), rl)
		if err != nil {
			t.Fatal(err)
		}
		if corners[0].x >= 0 && corners[0].y >= 0 {
			t.Fatalf("cropped frame's corner %+v lies inside the image; no border taps exercised", corners[0])
		}
		dst = checkRectify(t, &s, dst, cropped, rl, "border taps")
		dst = checkRectify(t, &s, dst, rotateDeg(cropped, 0.4), rl, "border taps rotated")

		// A fogged frame (the placeholder an unfilled slot scans as) has
		// no emblem; both formulations must say so.
		fog := raster.New(img.W, img.H)
		for i := range fog.Pix {
			fog.Pix[i] = 128
		}
		if _, err := RectifyWith(&s, dst, fog, rl); !errors.Is(err, ErrNoEmblem) {
			t.Fatalf("fogged frame: %v, want ErrNoEmblem", err)
		}
		dst = checkRectify(t, &s, dst, fog, rl, "fogged")
	}
}

// TestRectifyMatchesRectifyWith pins the one-shot wrapper to the scratch
// path.
func TestRectifyMatchesRectifyWith(t *testing.T) {
	l := emblem.Layout{DataW: 80, DataH: 60, PxPerModule: 3}
	payload := make([]byte, Capacity(l))
	rand.New(rand.NewSource(92)).Read(payload)
	img, err := Encode(payload, emblem.Header{Kind: emblem.KindRaw}, l)
	if err != nil {
		t.Fatal(err)
	}
	scan := rotateDeg(img, 0.2)
	a, err := Rectify(scan, l)
	if err != nil {
		t.Fatal(err)
	}
	b := checkRectify(t, &DecodeScratch{}, nil, scan, l, "fresh")
	if !raster.Equal(a, b) {
		t.Fatal("Rectify differs from RectifyWith")
	}
}

// TestRectifyWithAllocs checks the steady-state claim: with the layout
// fixed, rectifying through a reused scratch and destination allocates
// nothing.
func TestRectifyWithAllocs(t *testing.T) {
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}
	payload := make([]byte, Capacity(l))
	rand.New(rand.NewSource(93)).Read(payload)
	img, err := Encode(payload, emblem.Header{Kind: emblem.KindRaw}, l)
	if err != nil {
		t.Fatal(err)
	}
	scan := rotateDeg(img, 0.1)
	var s DecodeScratch
	dst, err := RectifyWith(&s, nil, scan, l) // warm the scratch
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := RectifyWith(&s, dst, scan, l); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state RectifyWith allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkRectify rectifies one bench-profile frame (120×90 modules at
// 3 px, 0.1° skew): the reference formulation, the one-shot wrapper and
// the steady-state scratch path.
func BenchmarkRectify(b *testing.B) {
	l := emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}
	payload := make([]byte, Capacity(l))
	rand.New(rand.NewSource(94)).Read(payload)
	img, err := Encode(payload, emblem.Header{Kind: emblem.KindRaw}, l)
	if err != nil {
		b.Fatal(err)
	}
	scan := rotateDeg(img, 0.1)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rectifyRef(scan, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Rectify(scan, l); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		b.ReportAllocs()
		var s DecodeScratch
		dst, err := RectifyWith(&s, nil, scan, l)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RectifyWith(&s, dst, scan, l); err != nil {
				b.Fatal(err)
			}
		}
	})
}
