// Package dynarisc implements DynaRisc, the 16-bit, 23-instruction RISC
// software processor at the core of Olonys (§3.2, Table 1 of the paper).
//
// DynaRisc is not a real processor: it is a fixed, never-extended virtual
// ISA that layout decoders are written against, so that the decoders can
// be archived as instruction streams and executed decades later by any
// emulator implementing this specification. The package provides the ISA
// definition, an assembler, a disassembler and a reference CPU; the
// archived restoration path instead runs DynaRisc inside the VeRisc
// emulator (package verisc and internal/nested).
//
// # Architecture
//
//   - Eight 16-bit data registers R0..R7 and four 24-bit pointer registers
//     D0..D3. Register-to-register instructions accept both kinds; the
//     destination's width governs the arithmetic.
//   - Word-addressed memory of 16-bit words (size configurable, up to
//     2^24 words so a 4K film scan fits as one pixel-per-word buffer).
//   - Flags Z (zero), N (negative/msb), C (carry/borrow).
//   - Code lives in the low 64 Ki words (jump targets are 16-bit).
//   - Memory-mapped I/O: reading IOIn pops one input word, IOAvail reads 1
//     while input remains, writing IOOut appends an output word.
//   - MUL writes the low product word to Rd and the high word to R7
//     (MIPS-style HI register convention); C is set if the high word is
//     nonzero.
//
// # Encoding
//
// Instructions are one or two words:
//
//	word 0:  op[15:11] rd[10:7] rs[6:3] mode[2:0]
//	word 1:  immediate (LDI and absolute jumps only)
//
// Register ids: 0..7 = R0..R7, 8..11 = D0..D3. Ids 12..15 are invalid
// and no program may use them: the reference CPU fails an instruction
// that uses one with ErrBadRegister (a field the instruction ignores may
// hold anything), and the archived VeRisc-hosted emulator indexes a
// 12-entry register array with them, so their behaviour there is
// undefined. mode 1 selects the variant of MOVE (MOVH: load the high
// byte of a pointer register) and of the jump family (register-indirect
// target in Rd).
package dynarisc

import "fmt"

// Op is a DynaRisc opcode. There are exactly 23 (OpCount); Table 1 of the
// paper names seventeen of them, the remainder are the conventional
// complements (ADD, conditional jumps, HALT).
type Op uint8

const (
	HALT Op = iota
	MOVE    // MOVE Rd, Rs (mode 1 = MOVH Dd, Rs)
	LDI     // LDI Rd, #imm
	LDM     // LDM Rd, [Ds]
	STM     // STM Rs, [Dd]
	ADD     // ADD Rd, Rs
	ADC     // ADC Rd, Rs (adds carry)
	SUB     // SUB Rd, Rs
	SBB     // SBB Rd, Rs (subtracts borrow)
	CMP     // CMP Rd, Rs (SUB without writeback)
	MUL     // MUL Rd, Rs (lo→Rd, hi→R7)
	AND     // AND Rd, Rs
	OR      // OR Rd, Rs
	XOR     // XOR Rd, Rs
	LSL     // LSL Rd, Rs
	LSR     // LSR Rd, Rs
	ASR     // ASR Rd, Rs
	ROR     // ROR Rd, Rs
	JUMP    // JUMP addr | JUMP Rd (mode 1)
	JZ      // JZ addr | JZ Rd
	JNZ     // JNZ addr | JNZ Rd
	JC      // JC addr | JC Rd
	JNC     // JNC addr | JNC Rd

	// OpCount is the ISA size: exactly 23, fixed forever (§3.2).
	OpCount = 23
)

var opNames = [OpCount]string{
	"HALT", "MOVE", "LDI", "LDM", "STM", "ADD", "ADC", "SUB", "SBB",
	"CMP", "MUL", "AND", "OR", "XOR", "LSL", "LSR", "ASR", "ROR",
	"JUMP", "JZ", "JNZ", "JC", "JNC",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Memory-mapped I/O addresses (outside any configurable memory size).
const (
	IOIn    = 0xFFFFF0 // LDM pops the next input word (0 at EOF)
	IOAvail = 0xFFFFF1 // LDM reads 1 while input remains, else 0
	IOOut   = 0xFFFFF2 // STM appends an output word
)

// Register ids.
const (
	R0 = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	D0
	D1
	D2
	D3
	NumRegs
)

// RegName returns the assembler name of register id r.
func RegName(r int) string {
	switch {
	case r >= R0 && r <= R7:
		return fmt.Sprintf("R%d", r)
	case r >= D0 && r <= D3:
		return fmt.Sprintf("D%d", r-D0)
	default:
		return fmt.Sprintf("reg(%d)", r)
	}
}

// IsPointer reports whether register id r is a 24-bit pointer register.
func IsPointer(r int) bool { return r >= D0 && r < NumRegs }

// Encode packs an instruction word.
func Encode(op Op, rd, rs, mode int) uint16 {
	return uint16(op)<<11 | uint16(rd&15)<<7 | uint16(rs&15)<<3 | uint16(mode&7)
}

// Decode unpacks an instruction word.
func Decode(w uint16) (op Op, rd, rs, mode int) {
	return Op(w >> 11), int(w >> 7 & 15), int(w >> 3 & 15), int(w & 7)
}

// HasImmediate reports whether the opcode (with the given mode) consumes a
// second instruction word.
func HasImmediate(op Op, mode int) bool {
	switch op {
	case LDI:
		return true
	case JUMP, JZ, JNZ, JC, JNC:
		return mode&1 == 0
	default:
		return false
	}
}

// ISAClass labels an instruction class for the Table 1 listing.
type ISAClass string

// Table 1 classes.
const (
	ClassArithmetic ISAClass = "Arithmetic"
	ClassLogical    ISAClass = "Logical"
	ClassControl    ISAClass = "Control/Data"
)

// ClassOf returns the Table 1 class of an opcode.
func ClassOf(op Op) ISAClass {
	switch op {
	case ADD, ADC, SUB, SBB, CMP, MUL:
		return ClassArithmetic
	case AND, OR, XOR, LSL, LSR, ASR, ROR:
		return ClassLogical
	default:
		return ClassControl
	}
}

// ISAEntry is one row of the instruction table.
type ISAEntry struct {
	Op       Op
	Class    ISAClass
	Syntax   string
	InTable1 bool // named explicitly in Table 1 of the paper
}

// ISATable returns the full 23-instruction listing (reproducing Table 1
// plus the six instructions the paper leaves implicit).
func ISATable() []ISAEntry {
	syntax := map[Op]string{
		HALT: "HALT", MOVE: "MOVE Rd, Rs", LDI: "LDI Rd, #imm",
		LDM: "LDM Rd, [Ds]", STM: "STM Rs, [Dd]",
		ADD: "ADD Rd, Rs", ADC: "ADC(carry) Rd, Rs", SUB: "SUB Rd, Rs",
		SBB: "SBB(borrow) Rd, Rs", CMP: "CMP Rd, Rs", MUL: "MUL Rd, Rs",
		AND: "AND Rd, Rs", OR: "OR Rd, Rs", XOR: "XOR Rd, Rs",
		LSL: "LSL Rd, Rs", LSR: "LSR Rd, Rs", ASR: "ASR Rd, Rs",
		ROR: "ROR Rd, Rs", JUMP: "JUMP address", JZ: "JZ address",
		JNZ: "JNZ address", JC: "JC address", JNC: "JNC address",
	}
	table1 := map[Op]bool{
		ADC: true, SBB: true, SUB: true, CMP: true, MUL: true,
		AND: true, OR: true, XOR: true, LSL: true, LSR: true,
		ASR: true, ROR: true, MOVE: true, LDI: true, LDM: true,
		STM: true, JUMP: true,
	}
	out := make([]ISAEntry, 0, OpCount)
	for op := Op(0); op < OpCount; op++ {
		out = append(out, ISAEntry{
			Op: op, Class: ClassOf(op), Syntax: syntax[op], InTable1: table1[op],
		})
	}
	return out
}
