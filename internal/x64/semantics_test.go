package x64

import (
	"fmt"
	"testing"
)

// callerSaved is what a call clobbers in the model: every System-V
// caller-saved register, rax included as the return value.
var callerSaved = regs(RAX, RCX, RDX, RSI, RDI, R8, R9, R10, R11)

// semanticsRow is one opcode form with the general-purpose registers it
// reads and writes.
type semanticsRow struct {
	bytes         []byte
	reads, writes RegSet
}

// formKey names an opcode form: the opcode byte (after a 0F escape for
// the two-byte map) and the class the decoder gives it. Prefixes,
// ModRM operands, group fields that keep the class, and a register in
// the opcode's low three bits fold into one form.
type formKey struct {
	twoByte bool
	opcode  byte
	op      Op
}

// keyOf returns the form of the instruction encoded by b.
func keyOf(b []byte, in *Inst) formKey {
	i := 0
	for i < len(b) && (isLegacyPrefix(b[i]) || b[i]&0xF0 == 0x40) {
		i++
	}
	if b[i] == 0x0F {
		op := b[i+1]
		if op&0xF8 == 0xC8 { // bswap r
			op &^= 7
		}
		return formKey{true, op, in.Op}
	}
	op := b[i]
	if op&0xF0 == 0x50 || op&0xF8 == 0x90 || op&0xF0 == 0xB0 { // push/pop r, xchg rax, r, mov r, imm
		op &^= 7
	}
	return formKey{false, op, in.Op}
}

func isLegacyPrefix(c byte) bool {
	switch c {
	case 0x66, 0x67, 0xF0, 0xF2, 0xF3, 0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65:
		return true
	}
	return false
}

// semanticsTable lists every opcode form the decoder classifies with
// its register effects, under the model's conventions: registers are
// whole (a write to al writes rax); flags are not modeled; a memory
// operand reads its base and index; pushing a register saves it rather
// than using it (§IV-E); a call is modeled whole, reading nothing and
// clobbering the caller-saved set; implicit operands count (the
// accumulator and rdx of mul/div/cwd, rcx of a shift by cl, rsp of the
// stack instructions); and an instruction whose result does not depend
// on a register's old value does not read it (xor/sub/sbb r, r; the
// destination of imul r, r/m, imm).
func semanticsTable() []semanticsRow {
	strRegs := regs(RSI, RDI, RCX)
	rows := []semanticsRow{
		// Zeroing idioms read nothing.
		{[]byte{0x31, 0xC0}, 0, regs(RAX)},               // xor eax, eax
		{[]byte{0x33, 0xC9}, 0, regs(RCX)},               // xor ecx, ecx
		{[]byte{0x48, 0x29, 0xD2}, 0, regs(RDX)},         // sub rdx, rdx
		{[]byte{0x19, 0xDB}, 0, regs(RBX)},               // sbb ebx, ebx
		{[]byte{0x48, 0x21, 0xC0}, regs(RAX), regs(RAX)}, // and rax, rax
		// Memory operands read their address registers.
		{[]byte{0x48, 0x89, 0x43, 0x08}, regs(RBX, RAX), 0},               // mov [rbx+8], rax
		{[]byte{0x48, 0x8B, 0x44, 0x8B, 0x08}, regs(RBX, RCX), regs(RAX)}, // mov rax, [rbx+rcx*4+8]
		{[]byte{0x48, 0x8D, 0x04, 0x4B}, regs(RBX, RCX), regs(RAX)},       // lea rax, [rbx+rcx*2]
		{[]byte{0x48, 0x8D, 0x05, 0, 0, 0, 0}, 0, regs(RAX)},              // lea rax, [rip]
		{[]byte{0x83, 0x03, 0x01}, regs(RBX), 0},                          // add dword [rbx], 1
		{[]byte{0xC7, 0x03, 5, 0, 0, 0}, regs(RBX), 0},                    // mov dword [rbx], 5
		{[]byte{0x48, 0x63, 0xC1}, regs(RCX), regs(RAX)},                  // movsxd rax, ecx
		{[]byte{0x53}, regs(RSP), regs(RSP)},                              // push rbx
		{[]byte{0x41, 0x57}, regs(RSP), regs(RSP)},                        // push r15
		{[]byte{0x5B}, regs(RSP), regs(RBX, RSP)},                         // pop rbx
		{[]byte{0x68, 1, 0, 0, 0}, regs(RSP), regs(RSP)},                  // push imm32
		{[]byte{0x6A, 1}, regs(RSP), regs(RSP)},                           // push imm8
		{[]byte{0x6B, 0xC1, 0x30}, regs(RCX), regs(RAX)},                  // imul eax, ecx, 0x30
		{[]byte{0x48, 0x6B, 0xDF, 0x30}, regs(RDI), regs(RBX)},            // imul rbx, rdi, 0x30
		{[]byte{0x69, 0xC1, 0, 1, 0, 0}, regs(RCX), regs(RAX)},            // imul eax, ecx, 0x100
		{[]byte{0x84, 0xC1}, regs(RCX, RAX), 0},                           // test cl, al
		{[]byte{0x85, 0xC1}, regs(RCX, RAX), 0},                           // test ecx, eax
		{[]byte{0x86, 0xC1}, regs(RCX, RAX), regs(RCX, RAX)},              // xchg cl, al
		{[]byte{0x87, 0xC1}, regs(RCX, RAX), regs(RCX, RAX)},              // xchg ecx, eax
		{[]byte{0x88, 0xC1}, regs(RAX), regs(RCX)},                        // mov cl, al
		{[]byte{0x89, 0xC1}, regs(RAX), regs(RCX)},                        // mov ecx, eax
		{[]byte{0x8A, 0xC1}, regs(RCX), regs(RAX)},                        // mov al, cl
		{[]byte{0x8B, 0xC1}, regs(RCX), regs(RAX)},                        // mov eax, ecx
		{[]byte{0x8F, 0xC1}, regs(RSP), regs(RCX, RSP)},                   // pop rcx
		{[]byte{0x8F, 0x03}, regs(RBX, RSP), regs(RSP)},                   // pop [rbx]
		{[]byte{0x90}, 0, 0},                                              // nop
		{[]byte{0xF3, 0x90}, 0, 0},                                        // pause
		{[]byte{0x41, 0x90}, regs(RAX, R8), regs(RAX, R8)},                // xchg r8, rax
		{[]byte{0x93}, regs(RAX, RBX), regs(RAX, RBX)},                    // xchg ebx, eax
		{[]byte{0x48, 0x98}, regs(RAX), regs(RAX)},                        // cdqe
		{[]byte{0x98}, regs(RAX), regs(RAX)},                              // cwde
		{[]byte{0x48, 0x99}, regs(RAX), regs(RDX)},                        // cqo
		{[]byte{0x99}, regs(RAX), regs(RDX)},                              // cdq
		// String instructions are modeled coarsely: each reads and
		// writes rsi, rdi and rcx, and the accumulator is not modeled.
		{[]byte{0xA4}, strRegs, strRegs},                                 // movsb
		{[]byte{0xF3, 0xA4}, strRegs, strRegs},                           // rep movsb
		{[]byte{0x48, 0xA5}, strRegs, strRegs},                           // movsq
		{[]byte{0xF3, 0xA6}, strRegs, strRegs},                           // repe cmpsb
		{[]byte{0xA7}, strRegs, strRegs},                                 // cmpsd
		{[]byte{0xAA}, strRegs, strRegs},                                 // stosb
		{[]byte{0xF3, 0x48, 0xAB}, strRegs, strRegs},                     // rep stosq
		{[]byte{0xAC}, strRegs, strRegs},                                 // lodsb
		{[]byte{0xAD}, strRegs, strRegs},                                 // lodsd
		{[]byte{0xF2, 0xAE}, strRegs, strRegs},                           // repne scasb
		{[]byte{0xAF}, strRegs, strRegs},                                 // scasd
		{[]byte{0xA8, 5}, regs(RAX), 0},                                  // test al, 5
		{[]byte{0xA9, 5, 0, 0, 0}, regs(RAX), 0},                         // test eax, 5
		{[]byte{0xB3, 5}, 0, regs(RBX)},                                  // mov bl, 5
		{[]byte{0xBB, 5, 0, 0, 0}, 0, regs(RBX)},                         // mov ebx, 5
		{[]byte{0x49, 0xBB, 1, 2, 3, 4, 5, 6, 7, 8}, 0, regs(R11)},       // movabs r11, imm64
		{[]byte{0xC3}, regs(RSP), regs(RSP)},                             // ret
		{[]byte{0xC2, 8, 0}, regs(RSP), regs(RSP)},                       // ret 8
		{[]byte{0xCB}, regs(RSP), regs(RSP)},                             // retf
		{[]byte{0xCA, 8, 0}, regs(RSP), regs(RSP)},                       // retf 8
		{[]byte{0xC6, 0xC1, 5}, 0, regs(RCX)},                            // mov cl, 5
		{[]byte{0xC7, 0xC1, 5, 0, 0, 0}, 0, regs(RCX)},                   // mov ecx, 5
		{[]byte{0xC8, 0x10, 0, 0}, regs(RSP), regs(RSP, RBP)},            // enter 16, 0
		{[]byte{0xC9}, regs(RBP), regs(RSP, RBP)},                        // leave
		{[]byte{0xCC}, 0, 0},                                             // int3
		{[]byte{0xCD, 0x80}, 0, 0},                                       // int 0x80
		{[]byte{0xE8, 0, 0, 0, 0}, 0, callerSaved},                       // call rel32
		{[]byte{0xE9, 0, 0, 0, 0}, 0, 0},                                 // jmp rel32
		{[]byte{0xEB, 0}, 0, 0},                                          // jmp rel8
		{[]byte{0xF4}, 0, 0},                                             // hlt
		{[]byte{0xF6, 0xC1, 5}, regs(RCX), 0},                            // test cl, 5
		{[]byte{0xF7, 0xC9, 5, 0, 0, 0}, regs(RCX), 0},                   // test ecx, 5 (/1)
		{[]byte{0xF6, 0xD1}, regs(RCX), regs(RCX)},                       // not cl
		{[]byte{0xF7, 0xD1}, regs(RCX), regs(RCX)},                       // not ecx
		{[]byte{0xF6, 0xD9}, regs(RCX), regs(RCX)},                       // neg cl
		{[]byte{0xF7, 0xD9}, regs(RCX), regs(RCX)},                       // neg ecx
		{[]byte{0xF6, 0xE1}, regs(RAX, RCX), regs(RAX)},                  // mul cl
		{[]byte{0x48, 0xF7, 0xE1}, regs(RAX, RCX), regs(RAX, RDX)},       // mul rcx
		{[]byte{0xF7, 0x23}, regs(RAX, RBX), regs(RAX, RDX)},             // mul dword [rbx]
		{[]byte{0xF6, 0xE9}, regs(RAX, RCX), regs(RAX)},                  // imul cl
		{[]byte{0x48, 0xF7, 0xE9}, regs(RAX, RCX), regs(RAX, RDX)},       // imul rcx
		{[]byte{0xF6, 0xF1}, regs(RAX, RCX), regs(RAX)},                  // div cl
		{[]byte{0x48, 0xF7, 0xF1}, regs(RAX, RCX, RDX), regs(RAX, RDX)},  // div rcx
		{[]byte{0xF6, 0xF9}, regs(RAX, RCX), regs(RAX)},                  // idiv cl
		{[]byte{0x48, 0xF7, 0xF9}, regs(RAX, RCX, RDX), regs(RAX, RDX)},  // idiv rcx
		{[]byte{0xFE, 0xC1}, regs(RCX), regs(RCX)},                       // inc cl
		{[]byte{0xFE, 0xC9}, regs(RCX), regs(RCX)},                       // dec cl
		{[]byte{0xFF, 0xC1}, regs(RCX), regs(RCX)},                       // inc ecx
		{[]byte{0xFF, 0xC9}, regs(RCX), regs(RCX)},                       // dec ecx
		{[]byte{0xFF, 0xD0}, regs(RAX), callerSaved},                     // call rax
		{[]byte{0xFF, 0x10}, regs(RAX), callerSaved},                     // call [rax]
		{[]byte{0xFF, 0x18}, regs(RAX), callerSaved},                     // call far [rax]
		{[]byte{0xFF, 0xE3}, regs(RBX), 0},                               // jmp rbx
		{[]byte{0xFF, 0x28}, regs(RAX), 0},                               // jmp far [rax]
		{[]byte{0xFF, 0x33}, regs(RBX, RSP), regs(RSP)},                  // push [rbx]
		{[]byte{0xFF, 0xF1}, regs(RSP), regs(RSP)},                       // push rcx
		{[]byte{0x0F, 0x05}, regs(RAX), regs(RAX, RCX, R11)},             // syscall
		{[]byte{0x0F, 0x0B}, 0, 0},                                       // ud2
		{[]byte{0x0F, 0xA2}, regs(RAX, RCX), regs(RAX, RBX, RCX, RDX)},   // cpuid
		{[]byte{0xF3, 0x0F, 0x1E, 0xFA}, 0, 0},                           // endbr64
		{[]byte{0x0F, 0x1F, 0x44, 0, 0}, 0, 0},                           // nop [rax+rax]
		{[]byte{0x0F, 0x94, 0x03}, regs(RBX), 0},                         // sete [rbx]
		{[]byte{0x0F, 0xAF, 0xC1}, regs(RAX, RCX), regs(RAX)},            // imul eax, ecx
		{[]byte{0x0F, 0xB6, 0xC1}, regs(RCX), regs(RAX)},                 // movzx eax, cl
		{[]byte{0x0F, 0xB7, 0xC1}, regs(RCX), regs(RAX)},                 // movzx eax, cx
		{[]byte{0xF3, 0x0F, 0xB8, 0xC1}, regs(RCX), regs(RAX)},           // popcnt eax, ecx
		{[]byte{0x0F, 0xBC, 0xC1}, regs(RCX), regs(RAX)},                 // bsf eax, ecx
		{[]byte{0xF3, 0x0F, 0xBC, 0xC1}, regs(RCX), regs(RAX)},           // tzcnt eax, ecx
		{[]byte{0x0F, 0xBD, 0xC1}, regs(RCX), regs(RAX)},                 // bsr eax, ecx
		{[]byte{0x0F, 0xBE, 0xC1}, regs(RCX), regs(RAX)},                 // movsx eax, cl
		{[]byte{0x0F, 0xBF, 0xC1}, regs(RCX), regs(RAX)},                 // movsx eax, cx
		{[]byte{0x0F, 0xC0, 0xC1}, regs(RCX, RAX), regs(RCX, RAX)},       // xadd cl, al
		{[]byte{0x0F, 0xC1, 0xC1}, regs(RCX, RAX), regs(RCX, RAX)},       // xadd ecx, eax
		{[]byte{0xF0, 0x0F, 0xC1, 0x03}, regs(RBX, RAX), regs(RAX)},      // lock xadd [rbx], eax
		{[]byte{0x0F, 0xB0, 0xD1}, regs(RCX, RDX, RAX), regs(RCX, RAX)},  // cmpxchg cl, dl
		{[]byte{0x0F, 0xB1, 0xD1}, regs(RCX, RDX, RAX), regs(RCX, RAX)},  // cmpxchg ecx, edx
		{[]byte{0xF0, 0x0F, 0xB1, 0x13}, regs(RBX, RDX, RAX), regs(RAX)}, // lock cmpxchg [rbx], edx
		{[]byte{0x74, 0}, 0, 0},                                          // je rel8
	}
	// The ALU block: op r/m, r | op r, r/m (byte and wide) | op al/eax, imm.
	for k := byte(0); k < 8; k++ {
		dst := func(r Reg) RegSet {
			if k == 7 { // cmp writes nothing
				return 0
			}
			return regs(r)
		}
		base := 8 * k
		rows = append(rows,
			semanticsRow{[]byte{base, 0xC1}, regs(RCX, RAX), dst(RCX)},      // op cl, al
			semanticsRow{[]byte{base + 1, 0xC1}, regs(RCX, RAX), dst(RCX)},  // op ecx, eax
			semanticsRow{[]byte{base + 2, 0xC1}, regs(RAX, RCX), dst(RAX)},  // op al, cl
			semanticsRow{[]byte{base + 3, 0xC1}, regs(RAX, RCX), dst(RAX)},  // op eax, ecx
			semanticsRow{[]byte{base + 4, 5}, regs(RAX), dst(RAX)},          // op al, 5
			semanticsRow{[]byte{base + 5, 5, 0, 0, 0}, regs(RAX), dst(RAX)}, // op eax, 5
			// Group 1: op r/m, imm with the operation in ModRM.reg.
			semanticsRow{[]byte{0x80, 0xC1 | k<<3, 5}, regs(RCX), dst(RCX)},          // op cl, 5
			semanticsRow{[]byte{0x81, 0xC1 | k<<3, 5, 0, 0, 0}, regs(RCX), dst(RCX)}, // op ecx, 5
			semanticsRow{[]byte{0x83, 0xC1 | k<<3, 5}, regs(RCX), dst(RCX)},          // op ecx, 5
		)
		// Group 2 shifts and rotates of edx: by an immediate, by one,
		// and by cl.
		rows = append(rows,
			semanticsRow{[]byte{0xC0, 0xC2 | k<<3, 4}, regs(RDX), regs(RDX)},
			semanticsRow{[]byte{0xC1, 0xC2 | k<<3, 4}, regs(RDX), regs(RDX)},
			semanticsRow{[]byte{0xD0, 0xC2 | k<<3}, regs(RDX), regs(RDX)},
			semanticsRow{[]byte{0xD1, 0xC2 | k<<3}, regs(RDX), regs(RDX)},
			semanticsRow{[]byte{0xD2, 0xC2 | k<<3}, regs(RDX, RCX), regs(RDX)},
			semanticsRow{[]byte{0xD3, 0xC2 | k<<3}, regs(RDX, RCX), regs(RDX)},
		)
	}
	for c := byte(0); c < 16; c++ {
		rows = append(rows,
			semanticsRow{[]byte{0x70 + c, 0}, 0, 0},                               // jcc rel8
			semanticsRow{[]byte{0x0F, 0x80 + c, 0, 0, 0, 0}, 0, 0},                // jcc rel32
			semanticsRow{[]byte{0x0F, 0x90 + c, 0xC1}, 0, regs(RCX)},              // setcc cl
			semanticsRow{[]byte{0x0F, 0x40 + c, 0xC1}, regs(RAX, RCX), regs(RAX)}, // cmovcc eax, ecx
		)
	}
	for r := byte(0); r < 8; r++ {
		rows = append(rows,
			semanticsRow{[]byte{0x0F, 0x18 + r, 0x00}, 0, 0},                 // hint nop [rax]
			semanticsRow{[]byte{0x0F, 0xC8 + r}, regs(Reg(r)), regs(Reg(r))}, // bswap
		)
	}
	return rows
}

// TestRegisterSemanticsTable checks Reads and Writes on every row of
// the conformance table, and that the table covers every opcode form
// the decoder classifies: each one-byte and 0F opcode, under every
// ModRM byte and with no prefix, REX.B, REX.W or F3.
func TestRegisterSemanticsTable(t *testing.T) {
	covered := map[formKey]bool{}
	for _, row := range semanticsTable() {
		in := decodeOne(t, row.bytes, 0x1000)
		if !in.Classified {
			t.Errorf("% x: decodes unclassified (%s)", row.bytes, in.Op)
			continue
		}
		covered[keyOf(row.bytes, &in)] = true
		if got := Reads(&in); got != row.reads {
			t.Errorf("% x (%s): Reads = %v, want %v", row.bytes, in.String(), got, row.reads)
		}
		if got := Writes(&in); got != row.writes {
			t.Errorf("% x (%s): Writes = %v, want %v", row.bytes, in.String(), got, row.writes)
		}
	}

	missing := map[string]bool{}
	for _, pfx := range [][]byte{nil, {0x41}, {0x48}, {0xF3}} {
		for _, esc := range [][]byte{nil, {0x0F}} {
			for op := 0; op < 256; op++ {
				for modrm := 0; modrm < 256; modrm++ {
					b := append(append(append([]byte(nil), pfx...), esc...), byte(op), byte(modrm))
					b = append(b, make([]byte, 10)...)
					in, err := Decode(b, 0x1000)
					if err != nil || !in.Classified {
						continue
					}
					if k := keyOf(b, &in); !covered[k] {
						missing[fmt.Sprintf("% x (%s)", b[:in.Len], in.Op)] = true
						covered[k] = true
					}
				}
			}
		}
	}
	for form := range missing {
		t.Errorf("classified form %s has no row in the table", form)
	}
}
