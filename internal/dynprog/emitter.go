// Package dynprog contains the layout decoders of Micr'Olonys ported to
// DynaRisc assembly (§3.2 of the paper): DBDecode, which decodes the DBC1
// database archive format, and MODecode, which converts scanned emblem
// pixel arrays back to payload bytes.
//
// These are the programs the ULE approach actually archives: DBDecode is
// written to the media as system emblems; MODecode is serialised into the
// Bootstrap document as hex letters together with the DynaRisc emulator.
// Both are differential-tested against their Go twins (internal/dbcoder,
// internal/mocoder) and run under the nested VeRisc emulation path.
//
// The sources are generated with a small emitter rather than written as
// flat strings: variable access on a load/store machine is a three-
// instruction pattern, and generating it keeps several hundred such
// accesses consistent. The emitter reserves R4 and D3 as variable-access
// scratch, R5 as the constant 1, R6 as the link register and R7 for MUL
// high words; generated code keeps its live values in R0..R3 and memory.
// The exception is a leaf hot loop that does no variable access, CALL or
// MUL: nothing can clobber R4, R7 or D3 there, so it may hold loop state
// in them too. MODecode's pixel ingest, row sampling and syndrome loops
// run that way, with no memory traffic for their own state.
package dynprog

import (
	"fmt"
	"strings"
)

// asm is a tiny DynaRisc assembly text emitter.
type asm struct {
	b   strings.Builder
	seq int
}

// l writes one formatted source line.
func (a *asm) l(format string, args ...any) {
	fmt.Fprintf(&a.b, format+"\n", args...)
}

// label places a label.
func (a *asm) label(s string) { a.l("%s:", s) }

// uniq returns a fresh local label.
func (a *asm) uniq(prefix string) string {
	a.seq++
	return fmt.Sprintf("%s_%d", prefix, a.seq)
}

// equ defines an assembler constant.
func (a *asm) equ(name string, v int) { a.l(".equ %s, %d", name, v) }

// ldv loads a memory variable into reg (clobbers R4, D3).
func (a *asm) ldv(reg, sym string) {
	a.l("\tLDI  R4, %s", sym)
	a.l("\tMOVE D3, R4")
	a.l("\tLDM  %s, [D3]", reg)
}

// stv stores reg into a memory variable (clobbers R4, D3; preserves
// flags — LDI/MOVE/STM touch no flags).
func (a *asm) stv(reg, sym string) {
	a.l("\tLDI  R4, %s", sym)
	a.l("\tMOVE D3, R4")
	a.l("\tSTM  %s, [D3]", reg)
}

// shiftImm shifts reg by a constant count using R4 as the count register.
func (a *asm) shiftImm(op, reg string, count int) {
	a.l("\tLDI  %s, %d", "R4", count)
	a.l("\t%s  %s, R4", op, reg)
}

// setPtrIO points a D register at a DynaRisc I/O address.
func (a *asm) setPtrIO(d string, lo int) {
	a.l("\tLDI  R4, %d", lo)
	a.l("\tMOVE %s, R4", d)
	a.l("\tLDI  R4, 0xFF")
	a.l("\tMOVH %s, R4", d)
}

// String returns the accumulated source.
func (a *asm) String() string { return a.b.String() }
