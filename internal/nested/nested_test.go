package nested

import (
	"fmt"
	"testing"
	"testing/quick"

	"microlonys/dynarisc"
	"microlonys/verisc"
)

// ioPrelude points D0/D1/D2 at the DynaRisc I/O window.
const ioPrelude = `
	LDI  R4, 0xFFF0
	MOVE D0, R4
	LDI  R4, 0xFF
	MOVH D0, R4      ; D0 = IOIn
	LDI  R4, 0xFFF1
	MOVE D1, R4
	LDI  R4, 0xFF
	MOVH D1, R4      ; D1 = IOAvail
	LDI  R4, 0xFFF2
	MOVE D2, R4
	LDI  R4, 0xFF
	MOVH D2, R4      ; D2 = IOOut
`

// runBoth executes the program on the reference CPU and under nested
// emulation and requires identical output streams.
func runBoth(t *testing.T, src string, input []uint16) []uint16 {
	t.Helper()
	p, err := dynarisc.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}

	ref := dynarisc.NewCPU(1 << 18)
	ref.MaxSteps = 5_000_000
	if err := ref.LoadProgram(p.Org, p.Words); err != nil {
		t.Fatal(err)
	}
	ref.In = append([]uint16(nil), input...)
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	got, err := Run(p, input, 1<<18, 500_000_000)
	if err != nil {
		t.Fatalf("nested run: %v", err)
	}

	if len(got) != len(ref.Out) {
		t.Fatalf("output length: nested %d vs reference %d\nnested: %v\nref:    %v",
			len(got), len(ref.Out), got, ref.Out)
	}
	for i := range got {
		if got[i] != ref.Out[i] {
			t.Fatalf("output[%d]: nested %#x vs reference %#x", i, got[i], ref.Out[i])
		}
	}
	return got
}

func TestBuildSucceeds(t *testing.T) {
	p, err := Program()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cells) == 0 {
		t.Fatal("empty emulator")
	}
	if int(p.Org)+len(p.Cells) >= GuestBase {
		t.Fatalf("emulator (%d cells) collides with guest base %d", len(p.Cells), GuestBase)
	}
	t.Logf("DynaRisc-emulator-in-VeRisc: %d cells (%d instructions equivalent)",
		len(p.Cells), len(p.Cells)/2)
}

func TestEcho(t *testing.T) {
	out := runBoth(t, ioPrelude+`
	loop:
		LDM  R1, [D1]
		LDI  R2, 0
		CMP  R1, R2
		JZ   done
		LDM  R1, [D0]
		STM  R1, [D2]
		JUMP loop
	done:
		HALT
	`, []uint16{5, 0, 0xFFFF, 1234})
	if len(out) != 4 || out[2] != 0xFFFF {
		t.Fatalf("echo output %v", out)
	}
}

func TestFibonacci(t *testing.T) {
	out := runBoth(t, ioPrelude+`
		LDI R0, 0
		LDI R1, 1
		LDI R2, 14
		LDI R5, 1
	loop:
		MOVE R3, R1
		ADD  R1, R0
		MOVE R0, R3
		SUB  R2, R5
		JNZ  loop
		STM  R1, [D2]
		HALT
	`, nil)
	if out[0] != 610 {
		t.Fatalf("fib = %d", out[0])
	}
}

func TestCallRetAndJumpTable(t *testing.T) {
	runBoth(t, ioPrelude+`
		LDI  R0, 5
		CALL double
		CALL double
		STM  R0, [D2]

		LDI  R0, table
		MOVE D3, R0
		LDI  R1, 1
		ADD  D3, R1
		LDM  R2, [D3]
		JUMP R2
	entry0:
		LDI  R3, 100
		JUMP fin
	entry1:
		LDI  R3, 200
	fin:
		STM  R3, [D2]
		HALT
	double:
		ADD  R0, R0
		RET
	table:
		.word entry0, entry1
	`, nil)
}

func TestHighMemoryPointers(t *testing.T) {
	// Store/load beyond the 16-bit range: exercises MOVH and 24-bit
	// pointer arithmetic inside the nested emulator.
	out := runBoth(t, ioPrelude+`
		LDI  R0, 0x0000
		MOVE D3, R0
		LDI  R0, 2
		MOVH D3, R0      ; D3 = 0x020000 (128Ki words)
		LDI  R1, 0xABCD
		STM  R1, [D3]
		LDM  R2, [D3]
		STM  R2, [D2]
		; walk the pointer and check adjacent cell is independent
		LDI  R1, 1
		ADD  D3, R1
		LDI  R1, 0x1111
		STM  R1, [D3]
		LDM  R2, [D3]
		STM  R2, [D2]
		HALT
	`, nil)
	if out[0] != 0xABCD || out[1] != 0x1111 {
		t.Fatalf("high memory: %v", out)
	}
}

// aluProgram emits one op plus a flag dump, reading operands from input.
func aluProgram(op string, carryIn bool) string {
	carry := `
		LDI R4, 0
		LDI R5, 0
		CMP R4, R5       ; C=0
	`
	if carryIn {
		carry = `
		LDI R4, 0
		LDI R5, 1
		CMP R4, R5       ; C=1 (borrow)
	`
	}
	return ioPrelude + `
		LDM  R0, [D0]    ; a
		LDM  R1, [D0]    ; b
	` + carry + fmt.Sprintf(`
		%s   R0, R1
	`, op) + `
		STM  R0, [D2]    ; result
		LDI  R2, 0
		JNZ  notz
		LDI  R2, 1
	notz:
		STM  R2, [D2]    ; Z
		LDI  R3, 0
		JNC  notc
		LDI  R3, 1
	notc:
		STM  R3, [D2]    ; C
		STM  R7, [D2]    ; R7 (MUL high word)
		HALT
	`
}

func TestALUDifferential(t *testing.T) {
	ops := []string{"ADD", "ADC", "SUB", "SBB", "CMP", "MUL", "AND", "OR", "XOR", "LSL", "LSR", "ASR", "ROR"}
	// Deterministic corner cases plus a few random pairs per op.
	pairs := [][2]uint16{
		{0, 0}, {1, 1}, {0xFFFF, 1}, {0x8000, 0x8000}, {0x7FFF, 2},
		{0xFFFF, 0xFFFF}, {5, 16}, {0xABCD, 3}, {1, 31}, {0x8001, 15},
	}
	for _, op := range ops {
		for _, carryIn := range []bool{false, true} {
			src := aluProgram(op, carryIn)
			for _, pr := range pairs {
				runBoth(t, src, []uint16{pr[0], pr[1]})
			}
		}
	}
}

func TestALUQuickDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("quick differential skipped in -short mode")
	}
	ops := []string{"ADC", "SBB", "MUL", "XOR", "ROR", "ASR"}
	for _, op := range ops {
		src := aluProgram(op, true)
		f := func(a, b uint16) bool {
			// Bound shift counts to keep runtime sane; correctness for
			// large counts is covered by the fixed pairs above.
			if op == "ROR" || op == "ASR" {
				b &= 31
			}
			p, err := dynarisc.Assemble(src)
			if err != nil {
				return false
			}
			ref := dynarisc.NewCPU(1 << 16)
			ref.MaxSteps = 1_000_000
			ref.LoadProgram(p.Org, p.Words)
			ref.In = []uint16{a, b}
			if err := ref.Run(); err != nil {
				return false
			}
			got, err := Run(p, []uint16{a, b}, 1<<16, 200_000_000)
			if err != nil || len(got) != len(ref.Out) {
				return false
			}
			for i := range got {
				if got[i] != ref.Out[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
			t.Errorf("%s: %v", op, err)
		}
	}
}

func TestPointerWidthALU(t *testing.T) {
	runBoth(t, ioPrelude+`
		LDI  R0, 0xFFFF
		MOVE D3, R0
		LDI  R1, 1
		ADD  D3, R1       ; 0x10000, 24-bit: no carry
		LDI  R2, 0
		JNC  nocarry
		LDI  R2, 1
	nocarry:
		STM  R2, [D2]
		MOVE R3, D3       ; low 16 bits = 0
		STM  R3, [D2]
		; wrap 24-bit
		LDI  R1, 0xFF
		MOVH D3, R1
		LDI  R1, 0xFFFF
		MOVE R0, D3       ; R0 = low16 of D3
		; D3 = 0xFF0000; add 0xFFFF twice then 2 → wrap
		LDI  R1, 0xFFFF
		ADD  D3, R1
		LDI  R1, 1
		ADD  D3, R1       ; 0x1000000 → wraps to 0 with carry
		LDI  R2, 0
		JNC  nc2
		LDI  R2, 1
	nc2:
		STM  R2, [D2]
		HALT
	`, nil)
}

// TestPointerRegisterForms runs the pointer-register forms MODecode's
// register-resident loops rely on — a pointer-to-pointer MOVE and ADD,
// a 24-bit logical shift right, a 24-bit ADD of a data register with
// wrap-around, and the carry-to-0/1 idiom LDI + ADC — on both CPUs over
// inputs that set bit 23 and carry across bit 15.
func TestPointerRegisterForms(t *testing.T) {
	src := ioPrelude + `
		LDM  R0, [D0]
		MOVE D3, R0
		LDM  R0, [D0]
		MOVH D3, R0      ; D3 = in0 | (in1&0xFF)<<16
		LDM  R4, [D0]    ; R4 = in2
		MOVE D1, D3      ; pointer to pointer
		ADD  D1, R4      ; 24-bit, wraps at 2^24
		MOVE R0, D1
		STM  R0, [D2]
		LDI  R3, 8
		LSR  D1, R3      ; logical, 24-bit
		MOVE R0, D1
		STM  R0, [D2]
		ADD  D1, D3      ; pointer + pointer
		MOVE R0, D1
		STM  R0, [D2]
		LDI  R3, 16
		LSR  D1, R3      ; high byte
		MOVE R0, D1
		STM  R0, [D2]
		MOVE R0, R4
		CMP  R0, R3      ; C = in2 < 16
		LDI  R0, 0
		ADC  R0, R0
		STM  R0, [D2]
		OR   R4, R4
		LDI  R0, 7
		JZ   zero
		LDI  R0, 9
	zero:
		STM  R0, [D2]
		HALT
	`
	for _, in := range [][]uint16{
		{0, 0, 0}, {0xFFFF, 0xFF, 1}, {0x8080, 0x80, 0x7F80}, {0xF0FF, 0x12, 0x0180}, {0x1234, 0xFE, 0xFFFF},
	} {
		runBoth(t, src, in)
	}
}

func TestStepLimitPropagates(t *testing.T) {
	p := dynarisc.MustAssemble("loop: JUMP loop")
	_, err := Run(p, nil, 1<<12, 10_000)
	if err == nil {
		t.Fatal("runaway guest did not hit the host step limit")
	}
}

func TestGuestInputFraming(t *testing.T) {
	p := &dynarisc.Program{Org: 7, Words: []uint16{1, 2, 3}}
	in := GuestInput(p, []uint16{9, 8})
	want := []uint32{7, 3, 1, 2, 3, 9, 8}
	if len(in) != len(want) {
		t.Fatalf("framing %v", in)
	}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("framing %v, want %v", in, want)
		}
	}
}

// TestEmulationOverhead reports the nested slowdown factor — the E8
// ablation's unit-level counterpart.
func TestEmulationOverhead(t *testing.T) {
	src := ioPrelude + `
		LDI R0, 0
		LDI R1, 1
		LDI R2, 2000
	loop:
		ADD R0, R1
		SUB R2, R1
		JNZ loop
		STM R0, [D2]
		HALT
	`
	p := dynarisc.MustAssemble(src)
	ref := dynarisc.NewCPU(1 << 16)
	ref.LoadProgram(p.Org, p.Words)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	prog, _ := Program()
	host := verisc.NewCPU(GuestBase + (1 << 16))
	host.Load(prog.Org, prog.Cells)
	host.In = GuestInput(p, nil)
	if err := host.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(host.Steps) / float64(ref.Steps)
	t.Logf("guest steps=%d, host VeRisc steps=%d, expansion ≈ %.0fx", ref.Steps, host.Steps, ratio)
	if ratio < 10 {
		t.Fatalf("implausibly low nested expansion %.1f", ratio)
	}
}
