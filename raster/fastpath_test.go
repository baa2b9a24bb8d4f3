package raster

import (
	"math"
	"math/rand"
	"testing"
)

// The hot-path rewrites (direct Pix indexing in SampleBilinear and
// areaAverage, the row-major vertical blur pass) must be byte-identical
// to the straightforward reference formulations they replaced — the
// media scanner sits in front of every decode mode and Rectify in front
// of the emulated ones, so a single differing pixel would ripple into
// every restore. These tests
// pin that equivalence against reference implementations.

func noisyImage(w, h int, seed int64) *Gray {
	g := New(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Pix {
		g.Pix[i] = byte(rng.Intn(256))
	}
	return g
}

// refSampleBilinear is the original At-based formulation.
func refSampleBilinear(g *Gray, x, y float64) float64 {
	x0 := int(math.Floor(x))
	y0 := int(math.Floor(y))
	fx := x - float64(x0)
	fy := y - float64(y0)
	p00 := float64(g.At(x0, y0))
	p10 := float64(g.At(x0+1, y0))
	p01 := float64(g.At(x0, y0+1))
	p11 := float64(g.At(x0+1, y0+1))
	return p00*(1-fx)*(1-fy) + p10*fx*(1-fy) + p01*(1-fx)*fy + p11*fx*fy
}

func TestSampleBilinearMatchesReference(t *testing.T) {
	g := noisyImage(37, 23, 1)
	rng := rand.New(rand.NewSource(2))
	// Dense random positions inside, straddling and outside the bounds.
	for i := 0; i < 20000; i++ {
		x := rng.Float64()*float64(g.W+8) - 4
		y := rng.Float64()*float64(g.H+8) - 4
		if got, want := g.SampleBilinear(x, y), refSampleBilinear(g, x, y); got != want {
			t.Fatalf("SampleBilinear(%g, %g) = %v, reference %v", x, y, got, want)
		}
	}
	// Exact corners and edges, where the interior predicate flips.
	for _, x := range []float64{-1, -0.5, 0, 0.5, 1, float64(g.W) - 2, float64(g.W) - 1.5, float64(g.W) - 1, float64(g.W)} {
		for _, y := range []float64{-1, 0, 0.5, float64(g.H) - 2, float64(g.H) - 1, float64(g.H)} {
			if got, want := g.SampleBilinear(x, y), refSampleBilinear(g, x, y); got != want {
				t.Fatalf("SampleBilinear(%g, %g) = %v, reference %v", x, y, got, want)
			}
		}
	}
}

// refBoxBlur is the original column-walking vertical pass.
func refBoxBlur(g *Gray, radius int) *Gray {
	if radius <= 0 {
		return g.Clone()
	}
	atCol := func(img *Gray, x, y int) byte {
		if y < 0 {
			y = 0
		}
		if y >= img.H {
			y = img.H - 1
		}
		return img.Pix[y*img.W+x]
	}
	tmp := &Gray{W: g.W, H: g.H, Pix: make([]byte, len(g.Pix))}
	win := 2*radius + 1
	for y := 0; y < g.H; y++ {
		row := g.Pix[y*g.W:]
		var sum int
		for x := -radius; x <= radius; x++ {
			sum += int(atClamped(row, g.W, x))
		}
		for x := 0; x < g.W; x++ {
			tmp.Pix[y*g.W+x] = byte(sum / win)
			sum += int(atClamped(row, g.W, x+radius+1)) - int(atClamped(row, g.W, x-radius))
		}
	}
	out := &Gray{W: g.W, H: g.H, Pix: make([]byte, len(g.Pix))}
	for x := 0; x < g.W; x++ {
		var sum int
		for y := -radius; y <= radius; y++ {
			sum += int(atCol(tmp, x, y))
		}
		for y := 0; y < g.H; y++ {
			out.Pix[y*g.W+x] = byte(sum / win)
			sum += int(atCol(tmp, x, y+radius+1)) - int(atCol(tmp, x, y-radius))
		}
	}
	return out
}

func TestBoxBlurMatchesReference(t *testing.T) {
	for _, size := range [][2]int{{1, 1}, {5, 3}, {64, 48}, {131, 77}} {
		g := noisyImage(size[0], size[1], int64(size[0]))
		for _, radius := range []int{0, 1, 2, 5, 100} {
			got := g.BoxBlur(radius)
			want := refBoxBlur(g, radius)
			if !Equal(got, want) {
				t.Fatalf("BoxBlur(%d) on %dx%d differs from reference in %d pixels",
					radius, size[0], size[1], DiffCount(got, want))
			}
		}
	}
}

// refAreaAverage is the original At-based integration.
func refAreaAverage(g *Gray, x0, y0, x1, y1 float64) float64 {
	ix0, iy0 := int(math.Floor(x0)), int(math.Floor(y0))
	ix1, iy1 := int(math.Ceil(x1)), int(math.Ceil(y1))
	var sum, area float64
	for iy := iy0; iy < iy1; iy++ {
		hy := math.Min(y1, float64(iy+1)) - math.Max(y0, float64(iy))
		if hy <= 0 {
			continue
		}
		for ix := ix0; ix < ix1; ix++ {
			wx := math.Min(x1, float64(ix+1)) - math.Max(x0, float64(ix))
			if wx <= 0 {
				continue
			}
			sum += wx * hy * float64(g.At(ix, iy))
			area += wx * hy
		}
	}
	if area == 0 {
		return 255
	}
	return sum / area
}

func TestAreaAverageMatchesReference(t *testing.T) {
	g := noisyImage(41, 29, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		x0 := rng.Float64()*float64(g.W+4) - 2
		y0 := rng.Float64()*float64(g.H+4) - 2
		x1 := x0 + rng.Float64()*6
		y1 := y0 + rng.Float64()*6
		if got, want := g.areaAverage(x0, y0, x1, y1), refAreaAverage(g, x0, y0, x1, y1); got != want {
			t.Fatalf("areaAverage(%g,%g,%g,%g) = %v, reference %v", x0, y0, x1, y1, got, want)
		}
	}
}

// TestResizeWarpStable pins whole-image results of the rewritten loops
// through the public entry points, up- and downscaling plus a rotation
// warp over a structured (non-noise) image.
func TestResizeWarpStable(t *testing.T) {
	g := New(90, 60)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			g.Pix[y*g.W+x] = byte((x*3 + y*5) % 256)
		}
	}
	up := g.Resize(g.W*2+1, g.H*2+1)
	down := g.Resize(g.W/3, g.H/3)
	rot := g.Warp(func(x, y float64) (float64, float64) {
		const th = 0.01
		cx, cy := float64(g.W)/2, float64(g.H)/2
		dx, dy := x-cx, y-cy
		return cx + dx*math.Cos(th) - dy*math.Sin(th), cy + dx*math.Sin(th) + dy*math.Cos(th)
	})

	refPix := func(img *Gray, f func(x, y int) float64) *Gray {
		out := &Gray{W: img.W, H: img.H, Pix: make([]byte, len(img.Pix))}
		for y := 0; y < img.H; y++ {
			for x := 0; x < img.W; x++ {
				out.Pix[y*img.W+x] = clampByte(f(x, y))
			}
		}
		return out
	}
	wantUp := refPix(up, func(x, y int) float64 {
		sx := float64(g.W) / float64(up.W)
		sy := float64(g.H) / float64(up.H)
		return refSampleBilinear(g, (float64(x)+0.5)*sx-0.5, (float64(y)+0.5)*sy-0.5)
	})
	if !Equal(up, wantUp) {
		t.Fatalf("bilinear Resize differs from reference in %d pixels", DiffCount(up, wantUp))
	}
	wantDown := refPix(down, func(x, y int) float64 {
		sx := float64(g.W) / float64(down.W)
		sy := float64(g.H) / float64(down.H)
		return refAreaAverage(g, float64(x)*sx, float64(y)*sy, float64(x)*sx+sx, float64(y)*sy+sy)
	})
	if !Equal(down, wantDown) {
		t.Fatalf("area Resize differs from reference in %d pixels", DiffCount(down, wantDown))
	}
	if rot.W != g.W || rot.H != g.H {
		t.Fatal("warp changed dimensions")
	}
}
