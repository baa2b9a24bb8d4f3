package dynarisc

import (
	"errors"
	"fmt"
)

// DefaultMemWords sizes the reference CPU's memory: 2^22 words holds the
// largest scan of the evaluation (a 4K cinema frame, one pixel per word)
// with room for buffers.
const DefaultMemWords = 1 << 22

// MaxMemWords bounds memory to the 24-bit pointer range.
const MaxMemWords = 1 << 24

// Execution errors.
var (
	ErrStepLimit  = errors.New("dynarisc: step limit exceeded")
	ErrBadAddress = errors.New("dynarisc: memory access out of range")
	ErrBadOpcode  = errors.New("dynarisc: undefined opcode")
	// ErrBadRegister reports an instruction naming register id 12..15
	// in a field it uses; such a word can only come from a damaged
	// program image.
	ErrBadRegister = errors.New("dynarisc: undefined register")
)

// CPU is the reference DynaRisc emulator.
//
// The zero value is unusable; call NewCPU. The CPU is deterministic: the
// same memory image and input stream always produce the same output, which
// the differential tests against the VeRisc-hosted emulator rely on.
type CPU struct {
	R  [8]uint16 // data registers
	D  [4]uint32 // pointer registers (24-bit)
	PC uint16
	Z  bool
	N  bool
	C  bool

	Mem []uint16

	// In is the input stream read through IOIn; Out collects words
	// written to IOOut.
	In    []uint16
	InPos int
	Out   []uint16

	Halted bool
	Steps  uint64
	// MaxSteps aborts runaway programs; 0 means no limit.
	MaxSteps uint64

	// Trace, when set, is invoked before each instruction with the
	// current instruction word (for debugging decoder programs).
	Trace func(c *CPU, instr uint16)

	// dirtyHi is 1 + the highest memory word written through LoadProgram
	// or a store since the last Reset, so Reset clears only touched
	// memory instead of the whole array.
	dirtyHi int
}

// NewCPU returns a CPU with the given memory size in words (0 selects
// DefaultMemWords).
func NewCPU(memWords int) *CPU {
	if memWords <= 0 {
		memWords = DefaultMemWords
	}
	if memWords > MaxMemWords {
		memWords = MaxMemWords
	}
	return &CPU{Mem: make([]uint16, memWords)}
}

// Reset returns the CPU to its power-on state while keeping its
// allocations, so one CPU can decode many frames without rebuilding the
// multi-megabyte memory image each time: registers, flags, PC, the step
// counter and the input cursor are zeroed; memory words written since
// the last Reset (through LoadProgram, Step or Run) are cleared via a
// dirty high-water mark; and Out is truncated in place so its capacity
// is reused. A Reset CPU behaves identically to a fresh NewCPU of the
// same size (reset_test.go pins that, including after an error or a
// step-limit abort). Configuration (MaxSteps, Trace) is preserved.
// Direct writes to Mem bypass the watermark — callers that poke memory
// themselves must also clear it themselves.
func (c *CPU) Reset() {
	c.R = [8]uint16{}
	c.D = [4]uint32{}
	c.PC = 0
	c.Z, c.N, c.C = false, false, false
	clear(c.Mem[:c.dirtyHi])
	c.dirtyHi = 0
	c.In = nil
	c.InPos = 0
	c.Out = c.Out[:0]
	c.Halted = false
	c.Steps = 0
}

// EnsureMem grows memory to at least memWords words (clamped to
// MaxMemWords), preserving contents. It never shrinks, so a reused CPU
// sized for the largest frame seen so far fits every smaller one.
func (c *CPU) EnsureMem(memWords int) {
	if memWords > MaxMemWords {
		memWords = MaxMemWords
	}
	if memWords <= len(c.Mem) {
		return
	}
	grown := make([]uint16, memWords)
	copy(grown, c.Mem)
	c.Mem = grown
}

// ReserveOut grows Out's spare capacity to at least n words, so a run
// with a known output size performs no append growth.
func (c *CPU) ReserveOut(n int) {
	if cap(c.Out)-len(c.Out) >= n {
		return
	}
	grown := make([]uint16, len(c.Out), len(c.Out)+n)
	copy(grown, c.Out)
	c.Out = grown
}

// LoadProgram copies words into memory at org and sets PC to org.
func (c *CPU) LoadProgram(org uint16, words []uint16) error {
	if int(org)+len(words) > len(c.Mem) {
		return fmt.Errorf("%w: program of %d words at %#x", ErrBadAddress, len(words), org)
	}
	copy(c.Mem[org:], words)
	if hi := int(org) + len(words); hi > c.dirtyHi {
		c.dirtyHi = hi
	}
	c.PC = org
	return nil
}

// reg returns the value of register id r (pointer registers full width).
func (c *CPU) reg(r int) uint32 {
	if IsPointer(r) {
		return c.D[r-D0]
	}
	return uint32(c.R[r])
}

// setReg writes v to register id r at the register's width.
func (c *CPU) setReg(r int, v uint32) {
	if IsPointer(r) {
		c.D[r-D0] = v & 0xFFFFFF
	} else {
		c.R[r] = uint16(v)
	}
}

// width returns the operand width in bits for destination register rd.
func width(rd int) uint {
	if IsPointer(rd) {
		return 24
	}
	return 16
}

func (c *CPU) setZN(v uint32, w uint) {
	mask := uint32(1)<<w - 1
	v &= mask
	c.Z = v == 0
	c.N = v>>(w-1)&1 == 1
}

// fetch reads the next code word.
func (c *CPU) fetch() uint16 {
	w := c.Mem[c.PC]
	c.PC++
	return w
}

// load reads a data word, honouring the memory-mapped I/O window.
func (c *CPU) load(addr uint32) (uint16, error) {
	switch addr {
	case IOIn:
		if c.InPos < len(c.In) {
			v := c.In[c.InPos]
			c.InPos++
			return v, nil
		}
		return 0, nil
	case IOAvail:
		if c.InPos < len(c.In) {
			return 1, nil
		}
		return 0, nil
	}
	if int(addr) >= len(c.Mem) {
		return 0, fmt.Errorf("%w: load %#x", ErrBadAddress, addr)
	}
	return c.Mem[addr], nil
}

// store writes a data word, honouring the memory-mapped I/O window.
func (c *CPU) store(addr uint32, v uint16) error {
	if addr == IOOut {
		c.Out = append(c.Out, v)
		return nil
	}
	if int(addr) >= len(c.Mem) {
		return fmt.Errorf("%w: store %#x", ErrBadAddress, addr)
	}
	c.Mem[addr] = v
	if int(addr) >= c.dirtyHi {
		c.dirtyHi = int(addr) + 1
	}
	return nil
}

// shiftResult computes the final value and carry of count one-bit
// LSL/LSR/ASR/ROR steps on v at width w in O(1). The reference semantics
// are the per-bit loop (shift by one, set C from the bit shifted out,
// repeat); carrySet reports whether that loop would have touched C at
// all (count > 0). Counts run 0..31 and may exceed the width, in which
// case LSL saturates to 0, LSR to 0, ASR to the replicated sign, and ROR
// wraps modulo w — exactly what iterating the one-bit step yields.
func shiftResult(op Op, v uint32, count int, w uint) (res uint32, carry, carrySet bool) {
	mask := uint32(1)<<w - 1
	v &= mask
	if count == 0 {
		return v, false, false
	}
	uc := uint(count)
	switch op {
	case LSL:
		if uc > w {
			return 0, false, true
		}
		carry = v>>(w-uc)&1 == 1
		if uc == w {
			return 0, carry, true
		}
		return v << uc & mask, carry, true
	case LSR:
		// v < 2^w, so bits past the top read as 0 for uc >= w.
		return v >> uc, v>>(uc-1)&1 == 1, true
	case ASR:
		sign := v >> (w - 1) & 1
		if uc >= w {
			if sign == 1 {
				return mask, true, true
			}
			return 0, false, true
		}
		res = v >> uc
		if sign == 1 {
			res |= mask &^ (mask >> uc)
		}
		return res, v>>(uc-1)&1 == 1, true
	default: // ROR
		carry = v>>((uc-1)%w)&1 == 1
		if r := uc % w; r != 0 {
			v = (v>>r | v<<(w-r)) & mask
		}
		return v, carry, true
	}
}

// checkRegs returns ErrBadRegister when the instruction at pc uses a
// register field holding an undefined id (12..15). Fields it does not
// use (all of HALT's, rd of an absolute jump, rs of LDI and the jumps,
// any field of an undefined opcode) may hold anything.
func checkRegs(op Op, rd, rs, mode int, pc uint16) error {
	useRd, useRs := false, false
	switch op {
	case MOVE, LDM, STM, ADD, ADC, SUB, SBB, CMP, MUL, AND, OR, XOR, LSL, LSR, ASR, ROR:
		useRd, useRs = true, true
	case LDI:
		useRd = true
	case JUMP, JZ, JNZ, JC, JNC:
		useRd = mode&1 == 1
	}
	switch {
	case useRd && rd >= NumRegs:
		return fmt.Errorf("%w: %s at pc=%#x", ErrBadRegister, RegName(rd), pc)
	case useRs && rs >= NumRegs:
		return fmt.Errorf("%w: %s at pc=%#x", ErrBadRegister, RegName(rs), pc)
	}
	return nil
}

// Step executes one instruction.
func (c *CPU) Step() error {
	if c.Halted {
		return nil
	}
	if c.MaxSteps > 0 && c.Steps >= c.MaxSteps {
		return ErrStepLimit
	}
	instr := c.Mem[c.PC]
	if c.Trace != nil {
		c.Trace(c, instr)
	}
	c.Steps++
	c.PC++
	op, rd, rs, mode := Decode(instr)
	if rd >= NumRegs || rs >= NumRegs {
		if err := checkRegs(op, rd, rs, mode, c.PC-1); err != nil {
			return err
		}
	}

	switch op {
	case HALT:
		c.Halted = true

	case MOVE:
		if mode&1 == 1 { // MOVH Dd, Rs
			if !IsPointer(rd) {
				return fmt.Errorf("dynarisc: MOVH needs pointer destination (pc=%#x)", c.PC-1)
			}
			d := rd - D0
			c.D[d] = c.D[d]&0xFFFF | (c.reg(rs)&0xFF)<<16
		} else {
			c.setReg(rd, c.reg(rs))
		}

	case LDI:
		c.setReg(rd, uint32(c.fetch()))

	case LDM:
		if !IsPointer(rs) {
			return fmt.Errorf("dynarisc: LDM needs pointer source (pc=%#x)", c.PC-1)
		}
		v, err := c.load(c.reg(rs))
		if err != nil {
			return err
		}
		c.setReg(rd, uint32(v))

	case STM:
		if !IsPointer(rs) {
			return fmt.Errorf("dynarisc: STM needs pointer destination (pc=%#x)", c.PC-1)
		}
		if err := c.store(c.reg(rs), uint16(c.reg(rd))); err != nil {
			return err
		}

	case ADD, ADC, SUB, SBB, CMP:
		w := width(rd)
		mask := uint32(1)<<w - 1
		a := c.reg(rd) & mask
		b := c.reg(rs) & mask
		var res uint32
		switch op {
		case ADD, ADC:
			res = a + b
			if op == ADC && c.C {
				res++
			}
			c.C = res > mask
		default: // SUB, SBB, CMP
			borrow := uint32(0)
			if op == SBB && c.C {
				borrow = 1
			}
			res = a - b - borrow
			c.C = a < b+borrow // borrow out
		}
		res &= mask
		c.setZN(res, w)
		if op != CMP {
			c.setReg(rd, res)
		}

	case MUL:
		p := (c.reg(rd) & 0xFFFF) * (c.reg(rs) & 0xFFFF)
		lo, hi := uint16(p), uint16(p>>16)
		c.setReg(rd, uint32(lo))
		c.R[7] = hi
		c.C = hi != 0
		c.setZN(uint32(lo), 16)

	case AND, OR, XOR:
		w := width(rd)
		mask := uint32(1)<<w - 1
		a := c.reg(rd) & mask
		b := c.reg(rs) & mask
		var res uint32
		switch op {
		case AND:
			res = a & b
		case OR:
			res = a | b
		default:
			res = a ^ b
		}
		c.setReg(rd, res)
		c.setZN(res, w)

	case LSL, LSR, ASR, ROR:
		w := width(rd)
		res, carry, carrySet := shiftResult(op, c.reg(rd), int(c.reg(rs)&31), w)
		if carrySet {
			c.C = carry
		}
		c.setReg(rd, res)
		c.setZN(res, w)

	case JUMP, JZ, JNZ, JC, JNC:
		var target uint16
		if mode&1 == 1 {
			target = uint16(c.reg(rd))
		} else {
			target = c.fetch()
		}
		taken := false
		switch op {
		case JUMP:
			taken = true
		case JZ:
			taken = c.Z
		case JNZ:
			taken = !c.Z
		case JC:
			taken = c.C
		case JNC:
			taken = !c.C
		}
		if taken {
			c.PC = target
		}

	default:
		return fmt.Errorf("%w: %d at pc=%#x", ErrBadOpcode, op, c.PC-1)
	}
	return nil
}

// Run executes until HALT, an error, or the step limit.
//
// Run is the throughput path, built like verisc.Run: it inlines
// fetch/decode and the direct-memory fast paths of LDI/LDM/STM, hoists
// the Trace and MaxSteps checks out of the per-instruction common case
// (a set Trace falls back to the Step loop; the step budget becomes a
// pre-resolved local limit) and keeps no error formatting on the hot
// path; register fields are checked further only when one holds an id
// of 12..15. Semantics are identical to calling Step in a loop — the
// differential tests in run_test.go and internal/dynprog pin that
// equivalence on the archived decoder programs.
func (c *CPU) Run() error {
	if c.Trace != nil {
		for !c.Halted {
			if err := c.Step(); err != nil {
				return err
			}
		}
		return nil
	}

	mem := c.Mem
	memLen := uint32(len(mem))
	limit := ^uint64(0)
	if c.MaxSteps > 0 {
		limit = c.MaxSteps
	}
	pc := c.PC
	steps := c.Steps

	for !c.Halted {
		if steps >= limit {
			c.PC, c.Steps = pc, steps
			return ErrStepLimit
		}
		instr := mem[pc]
		steps++
		pc++
		op, rd, rs, mode := Decode(instr)
		if rd >= NumRegs || rs >= NumRegs {
			if err := checkRegs(op, rd, rs, mode, pc-1); err != nil {
				c.PC, c.Steps = pc, steps
				return err
			}
		}

		switch op {
		case HALT:
			c.Halted = true

		case MOVE:
			if mode&1 == 1 { // MOVH Dd, Rs
				if !IsPointer(rd) {
					c.PC, c.Steps = pc, steps
					return fmt.Errorf("dynarisc: MOVH needs pointer destination (pc=%#x)", pc-1)
				}
				d := rd - D0
				c.D[d] = c.D[d]&0xFFFF | (c.reg(rs)&0xFF)<<16
			} else {
				c.setReg(rd, c.reg(rs))
			}

		case LDI:
			c.setReg(rd, uint32(mem[pc]))
			pc++

		case LDM:
			if !IsPointer(rs) {
				c.PC, c.Steps = pc, steps
				return fmt.Errorf("dynarisc: LDM needs pointer source (pc=%#x)", pc-1)
			}
			addr := c.D[rs-D0]
			// Direct-memory fast path. The I/O window starts at IOIn, so
			// any lower in-range address is a plain memory read even when
			// memory spans the full 24-bit range.
			if addr < IOIn && addr < memLen {
				c.setReg(rd, uint32(mem[addr]))
				continue
			}
			v, err := c.load(addr)
			if err != nil {
				c.PC, c.Steps = pc, steps
				return err
			}
			c.setReg(rd, uint32(v))

		case STM:
			if !IsPointer(rs) {
				c.PC, c.Steps = pc, steps
				return fmt.Errorf("dynarisc: STM needs pointer destination (pc=%#x)", pc-1)
			}
			addr := c.D[rs-D0]
			v := uint16(c.reg(rd))
			if addr != IOOut && addr < memLen {
				mem[addr] = v
				if int(addr) >= c.dirtyHi {
					c.dirtyHi = int(addr) + 1
				}
				continue
			}
			if err := c.store(addr, v); err != nil {
				c.PC, c.Steps = pc, steps
				return err
			}

		case ADD, ADC, SUB, SBB, CMP:
			w := width(rd)
			mask := uint32(1)<<w - 1
			a := c.reg(rd) & mask
			b := c.reg(rs) & mask
			var res uint32
			switch op {
			case ADD, ADC:
				res = a + b
				if op == ADC && c.C {
					res++
				}
				c.C = res > mask
			default: // SUB, SBB, CMP
				borrow := uint32(0)
				if op == SBB && c.C {
					borrow = 1
				}
				res = a - b - borrow
				c.C = a < b+borrow // borrow out
			}
			res &= mask
			c.setZN(res, w)
			if op != CMP {
				c.setReg(rd, res)
			}

		case MUL:
			p := (c.reg(rd) & 0xFFFF) * (c.reg(rs) & 0xFFFF)
			lo, hi := uint16(p), uint16(p>>16)
			c.setReg(rd, uint32(lo))
			c.R[7] = hi
			c.C = hi != 0
			c.setZN(uint32(lo), 16)

		case AND, OR, XOR:
			w := width(rd)
			mask := uint32(1)<<w - 1
			a := c.reg(rd) & mask
			b := c.reg(rs) & mask
			var res uint32
			switch op {
			case AND:
				res = a & b
			case OR:
				res = a | b
			default:
				res = a ^ b
			}
			c.setReg(rd, res)
			c.setZN(res, w)

		case LSL, LSR, ASR, ROR:
			w := width(rd)
			res, carry, carrySet := shiftResult(op, c.reg(rd), int(c.reg(rs)&31), w)
			if carrySet {
				c.C = carry
			}
			c.setReg(rd, res)
			c.setZN(res, w)

		case JUMP, JZ, JNZ, JC, JNC:
			var target uint16
			if mode&1 == 1 {
				target = uint16(c.reg(rd))
			} else {
				target = mem[pc]
				pc++
			}
			taken := false
			switch op {
			case JUMP:
				taken = true
			case JZ:
				taken = c.Z
			case JNZ:
				taken = !c.Z
			case JC:
				taken = c.C
			case JNC:
				taken = !c.C
			}
			if taken {
				pc = target
			}

		default:
			c.PC, c.Steps = pc, steps
			return fmt.Errorf("%w: %d at pc=%#x", ErrBadOpcode, op, pc-1)
		}
	}
	c.PC, c.Steps = pc, steps
	return nil
}

// OutBytes returns the output stream as bytes (low byte of each word) —
// the convention decoder programs use for byte streams.
func (c *CPU) OutBytes() []byte {
	return c.AppendOutBytes(make([]byte, 0, len(c.Out)))
}

// AppendOutBytes appends the output stream to dst as bytes (low byte of
// each word) and returns the extended slice — the companion to OutBytes
// for callers that reuse buffers across runs. Growth happens at most
// once, sized for the whole stream.
func (c *CPU) AppendOutBytes(dst []byte) []byte {
	if need := len(dst) + len(c.Out); cap(dst) < need {
		grown := make([]byte, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for _, w := range c.Out {
		dst = append(dst, byte(w))
	}
	return dst
}

// SetInBytes loads the input stream from bytes, one per word.
func (c *CPU) SetInBytes(p []byte) {
	c.In = AppendInWords(make([]uint16, 0, len(p)), p)
	c.InPos = 0
}

// AppendInWords appends p to dst one byte per word — the input-side
// companion to AppendOutBytes for callers that assemble reusable input
// streams instead of SetInBytes' fresh slice.
func AppendInWords(dst []uint16, p []byte) []uint16 {
	for _, b := range p {
		dst = append(dst, uint16(b))
	}
	return dst
}
