package dynprog

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"microlonys/dynarisc"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/raster"
)

// The reference formulation of MODecode's hot loops: pixel ingest, row
// sampling and syndrome evaluation as first written, with every loop variable
// loaded and stored through the emitter's ldv/stv pattern and each
// multiplication a CALL to gfmul. The archived program must produce the
// same output words as this one on every input; it only takes fewer
// steps to get there.

// moIngestRef reads W*H pixels counting down a 32-bit pixel count held
// in CXLO/CXHI, tracking MINV/MAXV in memory.
func moIngestRef(a *asm) {
	a.l("\tLDI  R0, 255")
	a.stv("R0", "MINV")
	a.l("\tLDI  R0, 0")
	a.stv("R0", "MAXV")
	a.ldv("R0", "SCANW")
	a.ldv("R1", "SCANH")
	a.l("\tMUL  R0, R1") // lo in R0, hi in R7
	a.l("\tMOVE R2, R7")
	a.stv("R0", "CXLO") // reuse CX pair as the pixel-count pair
	a.stv("R2", "CXHI")
	setPtr24(a, "D2", moPixels)
	a.label("pxloop")
	a.ldv("R0", "CXLO")
	a.ldv("R1", "CXHI")
	a.l("\tMOVE R2, R0")
	a.l("\tOR   R2, R1")
	a.l("\tJZ   pxdone")
	a.l("\tSUB  R0, R5")
	a.stv("R0", "CXLO")
	a.l("\tLDI  R2, 0")
	a.l("\tSBB  R1, R2")
	a.stv("R1", "CXHI")
	a.l("\tLDM  R0, [D1]")
	a.l("\tSTM  R0, [D2]")
	a.l("\tADD  D2, R5")
	// min/max tracking
	a.ldv("R1", "MINV")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  pxmax")
	a.stv("R0", "MINV")
	a.label("pxmax")
	a.ldv("R1", "MAXV")
	a.l("\tCMP  R1, R0")
	a.l("\tJNC  pxnext")
	a.stv("R0", "MAXV")
	a.label("pxnext")
	a.l("\tJUMP pxloop")
	a.label("pxdone")
	// threshold = (min + max + 1) / 2
	a.ldv("R0", "MINV")
	a.ldv("R1", "MAXV")
	a.l("\tADD  R0, R1")
	a.l("\tADD  R0, R5")
	a.l("\tLSR  R0, R5")
	a.stv("R0", "THR")
}

// moSyndromesRef evaluates each syndrome with y, the byte index and x in
// memory, multiplying through gfmul and re-deriving the codeword pointer
// for every byte.
func moSyndromesRef(a *asm) {
	a.l("\tLDI  R0, 0")
	a.stv("R0", "RIDX")
	a.label("syn_j")
	a.ldv("R0", "RIDX")
	a.l("\tLDI  R1, 32")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  syn_done")
	a.l("\tMOVE R1, R0")
	moLoadArr(a, "gfexp") // x = α^j
	a.stv("R0", "PEX")
	a.l("\tLDI  R0, 0")
	a.stv("R0", "MT4") // y
	a.l("\tLDI  R0, 0")
	a.stv("R0", "IIDX")
	a.label("syn_i")
	a.ldv("R0", "IIDX")
	a.ldv("R1", "CWLEN")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  syn_store")
	a.ldv("R0", "MT4")
	a.ldv("R1", "PEX")
	a.l("\tCALL gfmul")
	a.ldv("R1", "IIDX")
	moCwPtr(a)
	a.l("\tLDM  R1, [D2]")
	a.l("\tXOR  R0, R1")
	a.stv("R0", "MT4")
	a.ldv("R0", "IIDX")
	a.l("\tADD  R0, R5")
	a.stv("R0", "IIDX")
	a.l("\tJUMP syn_i")
	a.label("syn_store")
	a.ldv("R0", "MT4")
	a.ldv("R1", "RIDX")
	moStoreArr(a, "SYND")
	a.ldv("R0", "MT1")
	a.ldv("R1", "MT4")
	a.l("\tOR   R0, R1")
	a.stv("R0", "MT1")
	a.ldv("R0", "RIDX")
	a.l("\tADD  R0, R5")
	a.stv("R0", "RIDX")
	a.l("\tJUMP syn_j")
	a.label("syn_done")
	a.ldv("R0", "MT1")
	a.l("\tLDI  R1, 0")
	a.l("\tCMP  R0, R1")
	a.l("\tJNZ  bm_start")
	a.l("\tJUMP rs_ret") // clean block
}

// moSampleRowRef is samplerow calling getpix for every module, with XV,
// SI and the CX pair in memory.
func moSampleRowRef(a *asm) {
	a.label("samplerow")
	a.stv("R6", "MSV3")
	// YV = (Y0 + PITY*(3+MY) + PITY/2 + 128) >> 8
	a.ldv("R0", "MY")
	a.l("\tLDI  R1, 3")
	a.l("\tADD  R0, R1")
	a.ldv("R1", "PITYLO")
	a.l("\tMUL  R0, R1")
	a.l("\tMOVE R1, R7")
	a.ldv("R2", "PITYLO")
	a.l("\tLSR  R2, R5")
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.ldv("R2", "Y0LO")
	a.l("\tADD  R0, R2")
	a.ldv("R2", "Y0HI")
	a.l("\tADC  R1, R2")
	a.l("\tLDI  R2, 128")
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.shiftImm("LSR", "R0", 8)
	a.l("\tMOVE R2, R1")
	a.shiftImm("LSL", "R2", 8)
	a.l("\tOR   R0, R2")
	a.stv("R0", "YV")
	// CX pair = X0 + PITX*3 + PITX/2
	a.l("\tLDI  R0, 3")
	a.ldv("R1", "PITXLO")
	a.l("\tMUL  R0, R1")
	a.l("\tMOVE R1, R7")
	a.ldv("R2", "PITXLO")
	a.l("\tLSR  R2, R5")
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.ldv("R2", "X0LO")
	a.l("\tADD  R0, R2")
	a.ldv("R2", "X0HI")
	a.l("\tADC  R1, R2")
	a.stv("R0", "CXLO")
	a.stv("R1", "CXHI")
	setPtr24(a, "D2", moRowBuf)
	a.l("\tLDI  R0, 0")
	a.stv("R0", "SI")
	a.label("sr_loop")
	a.ldv("R0", "SI")
	a.ldv("R1", "DATAW")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  sr_done")
	// XV = (CX + 128) >> 8
	a.ldv("R0", "CXLO")
	a.ldv("R1", "CXHI")
	a.l("\tLDI  R2, 128")
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.shiftImm("LSR", "R0", 8)
	a.l("\tMOVE R2, R1")
	a.shiftImm("LSL", "R2", 8)
	a.l("\tOR   R0, R2")
	a.stv("R0", "XV")
	a.l("\tCALL getpix")
	a.ldv("R1", "THR")
	a.l("\tCMP  R0, R1")
	a.l("\tJC   sr_dark")
	a.l("\tLDI  R0, 0")
	a.l("\tJUMP sr_store")
	a.label("sr_dark")
	a.l("\tLDI  R0, 1")
	a.label("sr_store")
	a.l("\tSTM  R0, [D2]")
	a.l("\tADD  D2, R5")
	a.ldv("R0", "CXLO")
	a.ldv("R1", "PITXLO")
	a.l("\tADD  R0, R1")
	a.stv("R0", "CXLO")
	a.ldv("R0", "CXHI")
	a.l("\tLDI  R1, 0")
	a.l("\tADC  R0, R1")
	a.stv("R0", "CXHI")
	a.ldv("R0", "SI")
	a.l("\tADD  R0, R5")
	a.stv("R0", "SI")
	a.l("\tJUMP sr_loop")
	a.label("sr_done")
	a.ldv("R6", "MSV3")
	a.l("\tRET")
}

var (
	moRefOnce sync.Once
	moRefProg *dynarisc.Program
	moRefErr  error
)

// moDecodeRef assembles MODecode with the reference hot loops.
func moDecodeRef() (*dynarisc.Program, error) {
	moRefOnce.Do(func() {
		moRefProg, moRefErr = dynarisc.Assemble(moSource(moHotLoops{
			ingest: moIngestRef, sampleRow: moSampleRowRef, syndromes: moSyndromesRef,
		}))
	})
	return moRefProg, moRefErr
}

// moRun executes p on in and returns the finished CPU and its error.
func moRun(t *testing.T, p *dynarisc.Program, memWords int, in []uint16) (*dynarisc.CPU, error) {
	t.Helper()
	c := dynarisc.NewCPU(memWords)
	c.MaxSteps = 4_000_000_000
	if err := c.LoadProgram(p.Org, p.Words); err != nil {
		t.Fatal(err)
	}
	c.In = append([]uint16(nil), in...)
	return c, c.Run()
}

// errClass maps an execution error to its sentinel, so runs of two
// programs whose faulting PCs differ still compare equal.
func errClass(err error) string {
	for _, s := range []error{dynarisc.ErrStepLimit, dynarisc.ErrBadAddress, dynarisc.ErrBadOpcode, dynarisc.ErrBadRegister} {
		if errors.Is(err, s) {
			return s.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return "ok"
}

type moCase struct {
	name     string
	in       []uint16
	memWords int
	fewer    bool // a scanned frame: the archived program must take fewer steps
}

func imageCase(name string, img *raster.Gray, l emblem.Layout) moCase {
	return moCase{name: name, in: MOInput(img, l), memWords: MOMemWords(img), fewer: true}
}

// TestMODecodeMatchesReferenceProgram runs the archived MODecode and the
// reference formulation side by side: the same output words, halt state,
// error class, threshold and data memory on clean, damaged, rescanned, garbage, at- and
// past-correction-bound frames and the size/layout sweep, in fewer steps
// on each frame. Hand-made inputs cover the loop edges no rendered frame
// reaches: empty dimensions, truncated input, pixel words above 255 and
// a pixel buffer running out of memory.
func TestMODecodeMatchesReferenceProgram(t *testing.T) {
	newP, err := MODecode()
	if err != nil {
		t.Fatal(err)
	}
	refP, err := moDecodeRef()
	if err != nil {
		t.Fatalf("assemble reference: %v", err)
	}

	var cases []moCase
	l := moLayout()
	img, _ := moEncode(t, l, 0.9, 1)
	cases = append(cases, imageCase("clean", img, l))

	img, _ = moEncode(t, l, 1.0, 3)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 6; i++ {
		x := 60 + rng.Intn(img.W-120)
		y := 60 + rng.Intn(img.H-120)
		img.FillRect(x, y, x+3, y+3, byte(rng.Intn(2)*255))
	}
	cases = append(cases, imageCase("damaged", img, l))

	img, _ = moEncode(t, l, 0.8, 5)
	scan := img.Resize(img.W*5/4, img.H*5/4)
	cases = append(cases, imageCase("bitonal-rescan", scan.Threshold(scan.OtsuThreshold()), l))

	// Wide white margins put every sample past 256 px, so the X clock
	// needs its high word from a row's first module on.
	wl := emblem.Layout{DataW: l.DataW, DataH: l.DataH, PxPerModule: 8}
	img, _ = moEncode(t, wl, 0.5, 13)
	const m = 250
	margin := raster.New(img.W+2*m, img.H)
	for y := 0; y < img.H; y++ {
		copy(margin.Pix[y*margin.W+m:], img.Pix[y*img.W:(y+1)*img.W])
	}
	cases = append(cases, imageCase("wide-margins", margin, wl))

	garbage := raster.New(l.ImageW(), l.ImageH())
	rng = rand.New(rand.NewSource(6))
	for i := range garbage.Pix {
		garbage.Pix[i] = byte(rng.Intn(256))
	}
	cases = append(cases, imageCase("garbage", garbage, l))

	spec := mocoder.Spec(l)
	payload := make([]byte, spec.Capacity)
	rand.New(rand.NewSource(9)).Read(payload)
	rng = rand.New(rand.NewSource(10))
	img, err = mocoder.EncodeDamaged(payload, emblem.Header{Kind: emblem.KindData, Total: 1}, l, func(stream []byte) {
		for blk, dataLen := range spec.BlockDataLens {
			for _, j := range rng.Perm(dataLen)[:min(16, dataLen)] {
				stream[spec.StreamPos(blk, j)] ^= 0x3C
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, imageCase("correction-bound", img, l))

	// Past the bound: Berlekamp-Massey finds too many errors and the
	// decoder fails closed.
	img, err = mocoder.EncodeDamaged(payload, emblem.Header{Kind: emblem.KindData, Total: 1}, l, func(stream []byte) {
		for blk, dataLen := range spec.BlockDataLens {
			for _, j := range rng.Perm(dataLen)[:min(20, dataLen)] {
				stream[spec.StreamPos(blk, j)] ^= 0xA5
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, imageCase("beyond-bound", img, l))

	// Grayscale rescans at non-integer scales move every module's
	// sub-pixel sampling position.
	img, _ = moEncode(t, l, 0.6, 12)
	for _, num := range []int{7, 11} {
		cases = append(cases, imageCase(fmt.Sprintf("gray-rescan-%d/5", num), img.Resize(img.W*num/5, img.H*num/5), l))
	}

	for li, sl := range []emblem.Layout{
		{DataW: 80, DataH: 64, PxPerModule: 4},
		{DataW: 64, DataH: 64, PxPerModule: 2},
		{DataW: 120, DataH: 48, PxPerModule: 3},
	} {
		capacity := mocoder.Capacity(sl)
		for _, n := range []int{0, 1, 17, capacity / 2, capacity - 1, capacity} {
			payload := make([]byte, n)
			rand.New(rand.NewSource(int64(li*1000 + n))).Read(payload)
			img, err := mocoder.Encode(payload, emblem.Header{Kind: emblem.KindData, Total: 1}, sl)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, imageCase(fmt.Sprintf("%dx%d@%d/n=%d", sl.DataW, sl.DataH, sl.PxPerModule, n), img, sl))
		}
	}

	wide := make([]uint16, 4+64*64)
	copy(wide, []uint16{64, 64, 40, 40})
	rng = rand.New(rand.NewSource(11))
	for i := 4; i < len(wide); i++ {
		wide[i] = uint16(rng.Intn(1 << 16))
	}
	small := MOInput(garbage, l)
	cases = append(cases,
		moCase{name: "zero-width", in: []uint16{0, 50, 40, 40}, memWords: 1 << 19},
		moCase{name: "zero-height", in: []uint16{50, 0, 40, 40}, memWords: 1 << 19},
		moCase{name: "empty-input", memWords: 1 << 19},
		moCase{name: "truncated-input", in: small[:len(small)/2], memWords: MOMemWords(garbage)},
		moCase{name: "wide-pixel-words", in: wide, memWords: moPixels + 64*64 + 4096},
		moCase{name: "pixels-past-memory", in: small, memWords: moPixels + 1000},
	)

	for _, tc := range cases {
		ref, refErr := moRun(t, refP, tc.memWords, tc.in)
		got, gotErr := moRun(t, newP, tc.memWords, tc.in)
		if errClass(gotErr) != errClass(refErr) {
			t.Fatalf("%s: error %v, reference %v", tc.name, gotErr, refErr)
		}
		if got.Halted != ref.Halted {
			t.Fatalf("%s: halted %v, reference %v", tc.name, got.Halted, ref.Halted)
		}
		if len(got.Out) != len(ref.Out) {
			t.Fatalf("%s: %d output words, reference %d", tc.name, len(got.Out), len(ref.Out))
		}
		for i := range got.Out {
			if got.Out[i] != ref.Out[i] {
				t.Fatalf("%s: output word %d = %#x, reference %#x", tc.name, i, got.Out[i], ref.Out[i])
			}
		}
		// What the hot loops feed must match too, even where the output
		// cannot show it: the threshold, and all data memory from the RS
		// work arrays up (row buffer, stream, blocks, pixels).
		if thr := moVars["THR"]; got.Mem[thr] != ref.Mem[thr] {
			t.Fatalf("%s: THR %d, reference %d", tc.name, got.Mem[thr], ref.Mem[thr])
		}
		for i := moSynd; i < len(got.Mem); i++ {
			if got.Mem[i] != ref.Mem[i] {
				t.Fatalf("%s: memory[%#x] = %#x, reference %#x", tc.name, i, got.Mem[i], ref.Mem[i])
			}
		}
		if tc.fewer && got.Steps >= ref.Steps {
			t.Fatalf("%s: %d steps, reference %d", tc.name, got.Steps, ref.Steps)
		}
		t.Logf("%-22s out=%5d halted=%-5v err=%-38s steps %9d → %9d (%.3f×)",
			tc.name, len(got.Out), got.Halted, errClass(gotErr), ref.Steps, got.Steps,
			float64(got.Steps)/float64(ref.Steps))
	}
}
