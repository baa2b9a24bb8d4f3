package dynprog

import (
	"sync"

	"microlonys/dynarisc"
	"microlonys/internal/emblem"
	"microlonys/raster"
)

// MODecode — the media layout decoder as a DynaRisc program.
//
// Input stream (one word per value):
//
//	[ scanW, scanH, dataW, dataH, pixel0, pixel1, ... ]
//
// pixels are 8-bit intensities, row-major — the "linear flat array of
// pixel intensities" the Bootstrap document tells the future user to
// produce from each scan. Output: the emblem payload, one byte per word.
//
// Scope: the assembly decoder assumes an axis-aligned emblem (rotation
// handling and sub-pixel clock tracking live in the Go decoder;
// archival scanners are mechanically aligned, and §4's microfilm scans
// are bitonal). It performs full inner Reed-Solomon *error* correction —
// Berlekamp-Massey, Chien search and Forney's formula over GF(2^8) — so
// dust and damage on the data field are corrected exactly as in the Go
// path (erasure hints from clock violations are a Go-side refinement).
//
// Guest memory map (word addresses):
//
//	code + GF tables     < 0x3C00
//	variables              0x3C00…
//	RS work arrays         0x3E00…
//	row buffer             0x10000
//	demodulated stream     0x11000
//	deinterleaved blocks   0x30000
//	pixel buffer           0x40000…
const (
	moVarBase = 0x3C00
	moRowBuf  = 0x10000
	moStream  = 0x11000
	moBlocks  = 0x30000
	moPixels  = 0x40000
)

var moVars = map[string]int{
	// geometry
	"SCANW": 0x3C00, "SCANH": 0x3C01, "DATAW": 0x3C02, "DATAH": 0x3C03,
	"GRIDW": 0x3C04, "GRIDH": 0x3C05, "THR": 0x3C06,
	"LEFT": 0x3C07, "RIGHT": 0x3C08, "TOP": 0x3C09, "BOT": 0x3C0A,
	"PITXLO": 0x3C0B, "PITXHI": 0x3C0C, "PITYLO": 0x3C0D, "PITYHI": 0x3C0E,
	"X0LO": 0x3C0F, "X0HI": 0x3C10, "Y0LO": 0x3C11, "Y0HI": 0x3C12,
	"RUNX": 0x3C13, "RUNY": 0x3C14,
	// med3 / div32 workspace
	"MA": 0x3C15, "MB": 0x3C16, "MC": 0x3C17,
	"DVLO": 0x3C18, "DVHI": 0x3C19, "DSOR": 0x3C1A,
	"QLO": 0x3C1B, "QHI": 0x3C1C,
	// pixel access
	"XV": 0x3C1D, "YV": 0x3C1E,
	// scanning state
	"SI": 0x3C1F, "SJ": 0x3C20, "SK": 0x3C21, "RUNC": 0x3C22, "EDG": 0x3C23,
	"CXLO": 0x3C24, "CXHI": 0x3C25, "CYLO": 0x3C26, "CYHI": 0x3C27,
	// demodulation
	"MX": 0x3C28, "MY": 0x3C29, "HALF": 0x3C2A, "H1": 0x3C2B,
	"PREVL": 0x3C2C, "BITACC": 0x3C2D, "BITCNT": 0x3C2E,
	"SPOSLO": 0x3C2F, "SPOSHI": 0x3C30, "NBITSLO": 0x3C31, "NBITSHI": 0x3C32,
	"BITSDONELO": 0x3C33, "BITSDONEHI": 0x3C34,
	// stream / blocks bookkeeping
	"CODEDLO": 0x3C35, "CODEDHI": 0x3C36, "NFULL": 0x3C37, "REMB": 0x3C38,
	"NBLK": 0x3C39, "CWLEN": 0x3C3A, "BI": 0x3C3B,
	"PLLO": 0x3C3C, "PLHI": 0x3C3D,
	// RS state
	"CLEN": 0x3C3E, "BLEN": 0x3C3F, "LVAL": 0x3C40, "MVAL": 0x3C41,
	"BCOEF": 0x3C42, "DELTA": 0x3C43, "RIDX": 0x3C44, "IIDX": 0x3C45,
	"NROOT": 0x3C46, "DEGL": 0x3C47, "CWBASE": 0x3C48, "SCOEF": 0x3C49,
	"SSHIFT": 0x3C4A, "OLEN": 0x3C4B,
	// polyeval params
	"PEBASE": 0x3C4C, "PELEN": 0x3C4D, "PEX": 0x3C4E,
	// link-register save slots
	"MSV1": 0x3C50, "MSV2": 0x3C51, "MSV3": 0x3C52, "MSV4": 0x3C53,
	"MSV5": 0x3C54, "MSV6": 0x3C55, "MSV7": 0x3C56,
	// misc temporaries
	"MT1": 0x3C57, "MT2": 0x3C58, "MT3": 0x3C59, "MT4": 0x3C5A,
	"MT5": 0x3C5B, "MT6": 0x3C5C, "MT7": 0x3C5D, "MT8": 0x3C5E,
	"MINV": 0x3C5F, "MAXV": 0x3C60, "STEPC": 0x3C61,
	"OUTLO": 0x3C62, "OUTHI2": 0x3C63,
}

// RS work arrays.
const (
	moSynd   = 0x3E00 // 32
	moLambda = 0x3E20 // 40
	moBPoly  = 0x3E50 // 40
	moTPoly  = 0x3E80 // 40
	moOmega  = 0x3EB0 // 40
	moLPrime = 0x3EE0 // 40
	moPosns  = 0x3F10 // 40
	moHdrBuf = 0x3F40 // 22: voted header, emitted before the payload
)

func moEqus(a *asm) {
	names := []string{
		"SCANW", "SCANH", "DATAW", "DATAH", "GRIDW", "GRIDH", "THR",
		"LEFT", "RIGHT", "TOP", "BOT",
		"PITXLO", "PITXHI", "PITYLO", "PITYHI",
		"X0LO", "X0HI", "Y0LO", "Y0HI", "RUNX", "RUNY",
		"MA", "MB", "MC", "DVLO", "DVHI", "DSOR", "QLO", "QHI",
		"XV", "YV", "SI", "SJ", "SK", "RUNC", "EDG",
		"CXLO", "CXHI", "CYLO", "CYHI",
		"MX", "MY", "HALF", "H1", "PREVL", "BITACC", "BITCNT",
		"SPOSLO", "SPOSHI", "NBITSLO", "NBITSHI", "BITSDONELO", "BITSDONEHI",
		"CODEDLO", "CODEDHI", "NFULL", "REMB", "NBLK", "CWLEN", "BI",
		"PLLO", "PLHI",
		"CLEN", "BLEN", "LVAL", "MVAL", "BCOEF", "DELTA", "RIDX", "IIDX",
		"NROOT", "DEGL", "CWBASE", "SCOEF", "SSHIFT", "OLEN",
		"PEBASE", "PELEN", "PEX",
		"MSV1", "MSV2", "MSV3", "MSV4", "MSV5", "MSV6", "MSV7",
		"MT1", "MT2", "MT3", "MT4", "MT5", "MT6", "MT7", "MT8",
		"MINV", "MAXV", "STEPC", "OUTLO", "OUTHI2",
	}
	for _, n := range names {
		a.equ(n, moVars[n])
	}
	a.equ("SYND", moSynd)
	a.equ("LAMBDA", moLambda)
	a.equ("BPOLY", moBPoly)
	a.equ("TPOLY", moTPoly)
	a.equ("OMEGA", moOmega)
	a.equ("LPRIME", moLPrime)
	a.equ("POSNS", moPosns)
	a.equ("HDRV", moHdrBuf)
}

// setPtr24 points d at a 24-bit constant address using R4.
func setPtr24(a *asm, d string, addr int) {
	a.l("\tLDI  R4, %d", addr&0xFFFF)
	a.l("\tMOVE %s, R4", d)
	a.l("\tLDI  R4, %d", addr>>16)
	a.l("\tMOVH %s, R4", d)
}

func buildMODecodeSource() string {
	return moSource(moHotLoops{ingest: moIngest, sampleRow: moSampleRow, syndromes: moSyndromes})
}

// moHotLoops holds the emitters of MODecode's hot loops, where nearly
// all of a frame's steps go, so the tests can build the program around
// a reference formulation of them.
type moHotLoops struct {
	ingest    func(*asm) // pixels into the pixel buffer, then THR
	sampleRow func(*asm) // the samplerow subroutine
	syndromes func(*asm) // rsblock's syndrome evaluation
}

// moSource assembles the MODecode source around the given hot loops.
func moSource(h moHotLoops) string {
	a := &asm{}
	a.l("; MODecode — emblem scan decoder (geometry, Differential Manchester,")
	a.l("; interleaved RS(255,223) error correction).")
	moEqus(a)

	moMain(a)
	h.ingest(a)
	moGeometry(a)
	moDemod(a)
	moHeaderBlocks(a)
	moRSDriver(a)
	moOutput(a)
	moSubroutines(a, h.sampleRow, h.syndromes)
	moGFTables(a)
	return a.String()
}

// moMain reads the header words and derives the module grid size.
func moMain(a *asm) {
	a.label("start")
	a.l("\tLDI  R5, 1")
	a.setPtrIO("D1", 0xFFF0) // IOIn

	for _, v := range []string{"SCANW", "SCANH", "DATAW", "DATAH"} {
		a.l("\tLDM  R0, [D1]")
		a.stv("R0", v)
	}
	// grid = data + 2*(border+separator) = data + 6.
	for _, p := range [][2]string{{"DATAW", "GRIDW"}, {"DATAH", "GRIDH"}} {
		a.ldv("R0", p[0])
		a.l("\tLDI  R1, 6")
		a.l("\tADD  R0, R1")
		a.stv("R0", p[1])
	}
}

// moIngest reads the scanW×scanH pixels into the pixel buffer and sets
// THR to the midpoint of their range. It is the hottest loop of the
// program (one pass per pixel), so it runs as a leaf with its whole
// state in registers: R1 counts columns, R2 rows, R3 holds the minimum
// and R4 the maximum, R7 the row width; D1 is the input port and D2 the
// buffer cursor. Both dimensions are tested for zero first, so an empty
// scan reads nothing.
func moIngest(a *asm) {
	a.ldv("R7", "SCANW")
	a.ldv("R2", "SCANH")
	setPtr24(a, "D2", moPixels)
	a.l("\tLDI  R3, 255")
	a.l("\tLDI  R4, 0")
	a.l("\tOR   R7, R7")
	a.l("\tJZ   pxdone")
	a.l("\tOR   R2, R2")
	a.l("\tJZ   pxdone")
	a.label("pxrow")
	a.l("\tMOVE R1, R7")
	a.label("pxcol")
	a.l("\tLDM  R0, [D1]")
	a.l("\tSTM  R0, [D2]")
	a.l("\tADD  D2, R5")
	a.l("\tCMP  R0, R3")
	a.l("\tJNC  pxmax")
	a.l("\tMOVE R3, R0")
	a.label("pxmax")
	a.l("\tCMP  R4, R0")
	a.l("\tJNC  pxnext")
	a.l("\tMOVE R4, R0")
	a.label("pxnext")
	a.l("\tSUB  R1, R5")
	a.l("\tJNZ  pxcol")
	a.l("\tSUB  R2, R5")
	a.l("\tJNZ  pxrow")
	a.label("pxdone")
	// threshold = (min + max + 1) / 2
	a.l("\tMOVE R0, R3")
	a.l("\tADD  R0, R4")
	a.l("\tADD  R0, R5")
	a.l("\tLSR  R0, R5")
	a.stv("R0", "THR")
}

// moGeometry finds the border rectangle and the module pitch.
func moGeometry(a *asm) {
	// Run lengths ≈ half a border (one module) in pixels.
	// RUNX = max(2, SCANW / (DATAW+10) ); RUNY likewise.
	for _, p := range [][3]string{{"SCANW", "DATAW", "RUNX"}, {"SCANH", "DATAH", "RUNY"}} {
		a.ldv("R0", p[0])
		a.stv("R0", "DVLO")
		a.l("\tLDI  R0, 0")
		a.stv("R0", "DVHI")
		a.ldv("R0", p[1])
		a.l("\tLDI  R1, 10")
		a.l("\tADD  R0, R1")
		a.stv("R0", "DSOR")
		a.l("\tCALL div32")
		a.ldv("R0", "QLO")
		a.l("\tLDI  R1, 2")
		a.l("\tCMP  R0, R1")
		a.l("\tJNC  rl_ok_%s", p[2])
		a.l("\tLDI  R0, 2")
		a.l("rl_ok_%s:", p[2])
		a.stv("R0", p[2])
	}

	// Edge scans. For each edge: three sample lines, median of the
	// detected first-dark-run starts.
	// hscan: scan row SJ from x=SI direction SK (+1/-1), run RUNX → EDG.
	// vscan: scan column SJ from y=SI direction SK, run RUNY → EDG.

	// LEFT: rows H/4, H/2, 3H/4 scanning right.
	edge := func(name, scanSub, lineVar, startExpr, dir string, out string) {
		for i := 1; i <= 3; i++ {
			// sample line = dim*i/4
			a.ldv("R0", lineVar)
			a.l("\tLDI  R1, %d", i)
			a.l("\tMUL  R0, R1")
			a.l("\tMOVE R2, R7") // hi
			a.stv("R0", "DVLO")
			a.stv("R2", "DVHI")
			a.l("\tLDI  R0, 4")
			a.stv("R0", "DSOR")
			a.l("\tCALL div32")
			a.ldv("R0", "QLO")
			a.stv("R0", "SJ")
			// start position
			a.l("%s", startExpr)
			a.l("\tLDI  R0, %s", dir)
			a.stv("R0", "SK")
			a.l("\tCALL %s", scanSub)
			a.ldv("R0", "EDG")
			a.stv("R0", []string{"MA", "MB", "MC"}[i-1])
		}
		a.l("\tCALL med3")
		a.stv("R0", out)
		_ = name
	}

	edge("left", "hscan", "SCANH", "\tLDI  R0, 0\n\tLDI  R4, SI\n\tMOVE D3, R4\n\tSTM  R0, [D3]", "1", "LEFT")
	edge("right", "hscan", "SCANH", "\tLDI  R4, SCANW\n\tMOVE D3, R4\n\tLDM  R0, [D3]\n\tSUB  R0, R5\n\tLDI  R4, SI\n\tMOVE D3, R4\n\tSTM  R0, [D3]", "0xFFFF", "RIGHT")
	edge("top", "vscan", "SCANW", "\tLDI  R0, 0\n\tLDI  R4, SI\n\tMOVE D3, R4\n\tSTM  R0, [D3]", "1", "TOP")
	edge("bottom", "vscan", "SCANW", "\tLDI  R4, SCANH\n\tMOVE D3, R4\n\tLDM  R0, [D3]\n\tSUB  R0, R5\n\tLDI  R4, SI\n\tMOVE D3, R4\n\tSTM  R0, [D3]", "0xFFFF", "BOT")

	// pitchX(Q8) = ((RIGHT-LEFT+1) << 8) / GRIDW ; X0(Q8) = LEFT*256-128.
	for _, p := range [][5]string{
		{"RIGHT", "LEFT", "GRIDW", "PITXLO", "PITXHI"},
		{"BOT", "TOP", "GRIDH", "PITYLO", "PITYHI"},
	} {
		a.ldv("R0", p[0])
		a.ldv("R1", p[1])
		a.l("\tSUB  R0, R1")
		a.l("\tADD  R0, R5")
		// <<8 into pair
		a.l("\tMOVE R1, R0")
		a.shiftImm("LSR", "R1", 8) // hi
		a.shiftImm("LSL", "R0", 8) // lo
		a.stv("R0", "DVLO")
		a.stv("R1", "DVHI")
		a.ldv("R0", p[2])
		a.stv("R0", "DSOR")
		a.l("\tCALL div32")
		a.ldv("R0", "QLO")
		a.stv("R0", p[3])
		a.ldv("R0", "QHI")
		a.stv("R0", p[4])
	}
	for _, p := range [][3]string{{"LEFT", "X0LO", "X0HI"}, {"TOP", "Y0LO", "Y0HI"}} {
		a.ldv("R0", p[0])
		a.l("\tMOVE R1, R0")
		a.shiftImm("LSR", "R1", 8)
		a.shiftImm("LSL", "R0", 8)
		a.l("\tLDI  R2, 128")
		a.l("\tSUB  R0, R2")
		a.l("\tLDI  R2, 0")
		a.l("\tSBB  R1, R2")
		a.stv("R0", p[1])
		a.stv("R1", p[2])
	}
}

// moDemod samples the data modules row by row and demodulates the
// Differential-Manchester stream into bytes at moStream.
func moDemod(a *asm) {
	// nbits = (DATAW*DATAH - 144) / 2 (pair).
	a.ldv("R0", "DATAW")
	a.ldv("R1", "DATAH")
	a.l("\tMUL  R0, R1")
	a.l("\tMOVE R1, R7")
	a.l("\tLDI  R2, 144")
	a.l("\tSUB  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tSBB  R1, R2")
	// /2 across the pair: the bit dropped from the high word moves into
	// bit 15 of the low word.
	a.l("\tLSR  R1, R5") // C = dropped hi bit
	a.stv("R1", "NBITSHI")
	a.l("\tLDI  R3, 0")
	a.l("\tJNC  demod_nb")
	a.l("\tLDI  R3, 0x8000")
	a.label("demod_nb")
	a.l("\tMOVE R2, R0")
	a.l("\tLSR  R2, R5")
	a.l("\tOR   R2, R3")
	a.stv("R2", "NBITSLO")

	// halves limit = 2 × nbits
	a.ldv("R0", "NBITSLO")
	a.ldv("R1", "NBITSHI")
	a.l("\tADD  R0, R0")
	a.l("\tADC  R1, R1")
	a.stv("R0", "MT6")
	a.stv("R1", "MT7")

	// init demod state
	a.l("\tLDI  R0, 0")
	for _, v := range []string{"HALF", "PREVL", "BITACC", "SPOSLO", "SPOSHI", "BITSDONELO", "BITSDONEHI", "MY"} {
		a.stv("R0", v)
	}
	a.l("\tLDI  R0, 8")
	a.stv("R0", "BITCNT")

	// row loop
	a.label("rowloop")
	a.ldv("R0", "MY")
	a.ldv("R1", "DATAH")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  demoddone")
	a.l("\tCALL samplerow") // fills moRowBuf with 0/1 levels for row MY
	// serpentine read-out of the row
	a.ldv("R0", "MY")
	a.l("\tAND  R0, R5")
	a.l("\tJNZ  rowrev")
	// even row: x ascending
	a.l("\tLDI  R0, 0")
	a.stv("R0", "MX")
	a.label("rowfwd_loop")
	a.ldv("R0", "MX")
	a.ldv("R1", "DATAW")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  rownext")
	a.l("\tCALL procmodule")
	a.ldv("R0", "MX")
	a.l("\tADD  R0, R5")
	a.stv("R0", "MX")
	a.l("\tJUMP rowfwd_loop")
	// odd row: x descending
	a.label("rowrev")
	a.ldv("R0", "DATAW")
	a.l("\tSUB  R0, R5")
	a.stv("R0", "MX")
	a.label("rowrev_loop")
	a.l("\tCALL procmodule")
	a.ldv("R0", "MX")
	a.l("\tLDI  R1, 0")
	a.l("\tCMP  R0, R1")
	a.l("\tJZ   rownext")
	a.l("\tSUB  R0, R5")
	a.stv("R0", "MX")
	a.l("\tJUMP rowrev_loop")
	a.label("rownext")
	a.ldv("R0", "MY")
	a.l("\tADD  R0, R5")
	a.stv("R0", "MY")
	a.l("\tJUMP rowloop")
	a.label("demoddone")
}

// moHeaderBlocks votes the header, computes block shapes and
// deinterleaves the coded stream into moBlocks.
func moHeaderBlocks(a *asm) {
	// Majority vote the three 22-byte header copies in place (into MT
	// scratch, reading stream[i], stream[22+i], stream[44+i]).
	// Validate magic and pull PayloadLen (offsets 12..15, big endian).
	// maj(a,b,c) = (a&b)|(a&c)|(b&c)
	a.l("\tLDI  R0, 0")
	a.stv("R0", "SI")
	a.label("hvloop")
	a.ldv("R0", "SI")
	a.l("\tLDI  R1, 22")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  hvdone")
	// load three copies
	setPtr24(a, "D2", moStream)
	a.ldv("R0", "SI")
	a.l("\tADD  D2, R0")
	a.l("\tLDM  R1, [D2]") // a
	a.l("\tLDI  R0, 22")
	a.l("\tADD  D2, R0")
	a.l("\tLDM  R2, [D2]") // b
	a.l("\tADD  D2, R0")
	a.l("\tLDM  R3, [D2]") // c
	// maj into R1
	a.l("\tMOVE R0, R1")
	a.l("\tAND  R0, R2") // a&b
	a.l("\tAND  R1, R3") // a&c
	a.l("\tOR   R0, R1")
	a.l("\tAND  R2, R3") // b&c
	a.l("\tOR   R0, R2")
	a.stv("R0", "MT1")
	// Keep the voted byte: the header is emitted ahead of the payload so
	// the restoring host can group frames without re-parsing the scan.
	a.ldv("R1", "SI")
	a.l("\tLDI  R2, HDRV")
	a.l("\tADD  R2, R1")
	a.l("\tMOVE D0, R2")
	a.ldv("R0", "MT1")
	a.l("\tSTM  R0, [D0]")
	// dispatch on byte index for the fields we need
	hdrByte := func(idx int, code func()) {
		skip := a.uniq("hb")
		a.ldv("R1", "SI")
		a.l("\tLDI  R2, %d", idx)
		a.l("\tCMP  R1, R2")
		a.l("\tJNZ  %s", skip)
		code()
		a.label(skip)
	}
	hdrByte(0, func() { // magic must be 0xE5
		a.ldv("R0", "MT1")
		a.l("\tLDI  R1, 0xE5")
		a.l("\tCMP  R0, R1")
		a.l("\tJNZ  fail")
	})
	hdrByte(12, func() {
		a.ldv("R0", "MT1")
		a.shiftImm("LSL", "R0", 8)
		a.stv("R0", "PLHI")
	})
	hdrByte(13, func() {
		a.ldv("R0", "MT1")
		a.ldv("R1", "PLHI")
		a.l("\tOR   R0, R1")
		a.stv("R0", "PLHI")
	})
	hdrByte(14, func() {
		a.ldv("R0", "MT1")
		a.shiftImm("LSL", "R0", 8)
		a.stv("R0", "PLLO")
	})
	hdrByte(15, func() {
		a.ldv("R0", "MT1")
		a.ldv("R1", "PLLO")
		a.l("\tOR   R0, R1")
		a.stv("R0", "PLLO")
	})
	a.ldv("R0", "SI")
	a.l("\tADD  R0, R5")
	a.stv("R0", "SI")
	a.l("\tJUMP hvloop")
	a.label("hvdone")

	// codedBytes = (nbits - 528)/8 (pair ÷ 8 via div32).
	a.ldv("R0", "NBITSLO")
	a.ldv("R1", "NBITSHI")
	a.l("\tLDI  R2, 528")
	a.l("\tSUB  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tSBB  R1, R2")
	a.stv("R0", "DVLO")
	a.stv("R1", "DVHI")
	a.l("\tLDI  R0, 8")
	a.stv("R0", "DSOR")
	a.l("\tCALL div32")
	a.ldv("R0", "QLO")
	a.stv("R0", "CODEDLO")
	a.ldv("R0", "QHI")
	a.stv("R0", "CODEDHI")

	// nfull = coded / 255, remB = coded % 255; a remainder block exists
	// when remB >= 48.
	a.ldv("R0", "CODEDLO")
	a.stv("R0", "DVLO")
	a.ldv("R0", "CODEDHI")
	a.stv("R0", "DVHI")
	a.l("\tLDI  R0, 255")
	a.stv("R0", "DSOR")
	a.l("\tCALL div32") // QLO = nfull, remainder comes back in DVLO
	a.ldv("R0", "QLO")
	a.stv("R0", "NFULL")
	a.ldv("R0", "DVLO")
	a.stv("R0", "REMB")
	a.ldv("R0", "NFULL")
	a.stv("R0", "NBLK")
	a.ldv("R0", "REMB")
	a.l("\tLDI  R1, 48")
	a.l("\tCMP  R0, R1")
	a.l("\tJC   noremb")
	a.ldv("R0", "NBLK")
	a.l("\tADD  R0, R5")
	a.stv("R0", "NBLK")
	a.label("noremb")

	// Deinterleave: for i in 0..254: for b in 0..NBLK-1:
	//   if i < cwlen(b): blocks[b*255+i] = stream[66 + pos++]
	setPtr24(a, "D2", moStream+66)
	a.l("\tLDI  R0, 0")
	a.stv("R0", "SI") // i
	a.label("dloop_i")
	a.ldv("R0", "SI")
	a.l("\tLDI  R1, 255")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  ddone")
	a.l("\tLDI  R0, 0")
	a.stv("R0", "SJ") // b
	a.label("dloop_b")
	a.ldv("R0", "SJ")
	a.ldv("R1", "NBLK")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  dnext_i")
	// cwlen(b)
	a.l("\tCALL cwlenof") // SJ → R0 = cwlen
	a.ldv("R1", "SI")
	a.l("\tCMP  R1, R0")
	a.l("\tJNC  dnext_b") // i >= cwlen: skip
	// blocks[b*255 + i] = *D2++
	a.ldv("R0", "SJ")
	a.l("\tLDI  R1, 255")
	a.l("\tMUL  R0, R1")
	a.l("\tMOVE R1, R7")
	a.ldv("R2", "SI")
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.l("\tLDI  R2, %d", moBlocks&0xFFFF)
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.l("\tLDI  R2, %d", moBlocks>>16)
	a.l("\tADD  R1, R2")
	a.l("\tMOVE D0, R0")
	a.l("\tMOVH D0, R1")
	a.l("\tLDM  R0, [D2]")
	a.l("\tSTM  R0, [D0]")
	a.l("\tADD  D2, R5")
	a.label("dnext_b")
	a.ldv("R0", "SJ")
	a.l("\tADD  R0, R5")
	a.stv("R0", "SJ")
	a.l("\tJUMP dloop_b")
	a.label("dnext_i")
	a.ldv("R0", "SI")
	a.l("\tADD  R0, R5")
	a.stv("R0", "SI")
	a.l("\tJUMP dloop_i")
	a.label("ddone")
}

// moRSDriver decodes every block in place.
func moRSDriver(a *asm) {
	a.l("\tLDI  R0, 0")
	a.stv("R0", "BI")
	a.label("rsloop")
	a.ldv("R0", "BI")
	a.ldv("R1", "NBLK")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  rsalldone")
	// CWBASE = moBlocks + BI*255 (fits 24 bits; keep pair in CWBASE/MT8).
	a.ldv("R0", "BI")
	a.l("\tLDI  R1, 255")
	a.l("\tMUL  R0, R1")
	a.l("\tMOVE R1, R7")
	a.l("\tLDI  R2, %d", moBlocks&0xFFFF)
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.l("\tLDI  R2, %d", moBlocks>>16)
	a.l("\tADD  R1, R2")
	a.stv("R0", "CWBASE")
	a.stv("R1", "MT8")
	a.ldv("R0", "BI")
	a.stv("R0", "SJ")
	a.l("\tCALL cwlenof")
	a.stv("R0", "CWLEN")
	a.l("\tCALL rsblock")
	a.ldv("R0", "BI")
	a.l("\tADD  R0, R5")
	a.stv("R0", "BI")
	a.l("\tJUMP rsloop")
	a.label("rsalldone")
}

// moOutput streams the voted header and the corrected data bytes,
// truncated to PayloadLen.
func moOutput(a *asm) {
	a.setPtrIO("D1", 0xFFF2) // IOOut
	// Header first (22 bytes).
	a.l("\tLDI  R2, HDRV")
	a.l("\tMOVE D2, R2")
	a.l("\tLDI  R3, 22")
	a.label("outhdr")
	a.l("\tLDM  R0, [D2]")
	a.l("\tSTM  R0, [D1]")
	a.l("\tADD  D2, R5")
	a.l("\tSUB  R3, R5")
	a.l("\tJNZ  outhdr")
	a.l("\tLDI  R0, 0")
	a.stv("R0", "OUTLO")
	a.stv("R0", "OUTHI2")
	a.stv("R0", "BI")
	a.label("outblk")
	a.ldv("R0", "BI")
	a.ldv("R1", "NBLK")
	a.l("\tCMP  R0, R1")
	a.l("\tJNC  outfin")
	// D2 = block base; SK = data length (cwlen - 32).
	a.ldv("R0", "BI")
	a.l("\tLDI  R1, 255")
	a.l("\tMUL  R0, R1")
	a.l("\tMOVE R1, R7")
	a.l("\tLDI  R2, %d", moBlocks&0xFFFF)
	a.l("\tADD  R0, R2")
	a.l("\tLDI  R2, 0")
	a.l("\tADC  R1, R2")
	a.l("\tLDI  R2, %d", moBlocks>>16)
	a.l("\tADD  R1, R2")
	a.l("\tMOVE D2, R0")
	a.l("\tMOVH D2, R1")
	a.ldv("R0", "BI")
	a.stv("R0", "SJ")
	a.l("\tCALL cwlenof")
	a.l("\tLDI  R1, 32")
	a.l("\tSUB  R0, R1")
	a.stv("R0", "SK")
	a.label("outbyte")
	a.ldv("R0", "SK")
	a.l("\tLDI  R1, 0")
	a.l("\tCMP  R0, R1")
	a.l("\tJZ   outblknext")
	a.l("\tSUB  R0, R5")
	a.stv("R0", "SK")
	// stop at payloadLen
	a.ldv("R0", "OUTLO")
	a.ldv("R1", "PLLO")
	a.l("\tCMP  R0, R1")
	a.l("\tJNZ  outemit")
	a.ldv("R0", "OUTHI2")
	a.ldv("R1", "PLHI")
	a.l("\tCMP  R0, R1")
	a.l("\tJZ   outfin")
	a.label("outemit")
	a.l("\tLDM  R0, [D2]")
	a.l("\tSTM  R0, [D1]")
	a.l("\tADD  D2, R5")
	a.ldv("R0", "OUTLO")
	a.l("\tADD  R0, R5")
	a.stv("R0", "OUTLO")
	a.ldv("R0", "OUTHI2")
	a.l("\tLDI  R1, 0")
	a.l("\tADC  R0, R1")
	a.stv("R0", "OUTHI2")
	a.l("\tJUMP outbyte")
	a.label("outblknext")
	a.ldv("R0", "BI")
	a.l("\tADD  R0, R5")
	a.stv("R0", "BI")
	a.l("\tJUMP outblk")
	a.label("outfin")
	a.l("\tHALT")
	a.label("fail")
	a.l("\tHALT") // no output signals failure to the host
}

var (
	moOnce sync.Once
	moProg *dynarisc.Program
	moErr  error
)

// MODecode returns the assembled MODecode program (built once).
func MODecode() (*dynarisc.Program, error) {
	moOnce.Do(func() {
		moProg, moErr = dynarisc.Assemble(buildMODecodeSource())
	})
	return moProg, moErr
}

// MOInput frames a scan image for the MODecode input port:
// [scanW, scanH, dataW, dataH, pixels...].
func MOInput(img *raster.Gray, l emblem.Layout) []uint16 {
	in := make([]uint16, 0, 4+len(img.Pix))
	in = append(in, uint16(img.W), uint16(img.H), uint16(l.DataW), uint16(l.DataH))
	for _, p := range img.Pix {
		in = append(in, uint16(p))
	}
	return in
}

// MOMemWords returns a guest memory size fitting the scan.
func MOMemWords(img *raster.Gray) int {
	need := moPixels + img.W*img.H + 4096
	if need > dynarisc.MaxMemWords {
		need = dynarisc.MaxMemWords
	}
	return need
}
