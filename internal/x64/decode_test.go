package x64

import (
	"errors"
	"testing"
)

// decodeOne is a test helper that decodes a byte sequence and fails the
// test on error or on a length mismatch with the input.
func decodeOne(t *testing.T, b []byte, addr uint64) Inst {
	t.Helper()
	in, err := Decode(b, addr)
	if err != nil {
		t.Fatalf("Decode(% x) error: %v", b, err)
	}
	if in.Len != len(b) {
		t.Fatalf("Decode(% x) len = %d, want %d", b, in.Len, len(b))
	}
	return in
}

func TestDecodeBasicLengths(t *testing.T) {
	tests := []struct {
		name  string
		bytes []byte
		op    Op
	}{
		{"push rbp", []byte{0x55}, OpPush},
		{"push r12", []byte{0x41, 0x54}, OpPush},
		{"pop rbp", []byte{0x5D}, OpPop},
		{"mov rbp,rsp", []byte{0x48, 0x89, 0xE5}, OpMov},
		{"sub rsp,8", []byte{0x48, 0x83, 0xEC, 0x08}, OpSub},
		{"sub rsp,0x188", []byte{0x48, 0x81, 0xEC, 0x88, 0x01, 0x00, 0x00}, OpSub},
		{"add rsp,8", []byte{0x48, 0x83, 0xC4, 0x08}, OpAdd},
		{"ret", []byte{0xC3}, OpRet},
		{"ret imm16", []byte{0xC2, 0x10, 0x00}, OpRet},
		{"leave", []byte{0xC9}, OpLeave},
		{"nop", []byte{0x90}, OpNop},
		{"nop4", []byte{0x0F, 0x1F, 0x40, 0x00}, OpNop},
		{"nop8", []byte{0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00}, OpNop},
		{"int3", []byte{0xCC}, OpInt3},
		{"ud2", []byte{0x0F, 0x0B}, OpUd2},
		{"hlt", []byte{0xF4}, OpHlt},
		{"syscall", []byte{0x0F, 0x05}, OpSyscall},
		{"endbr64", []byte{0xF3, 0x0F, 0x1E, 0xFA}, OpEndbr64},
		{"call rel32", []byte{0xE8, 0x00, 0x01, 0x00, 0x00}, OpCall},
		{"jmp rel32", []byte{0xE9, 0xFB, 0xFF, 0xFF, 0xFF}, OpJmp},
		{"jmp rel8", []byte{0xEB, 0x05}, OpJmp},
		{"je rel8", []byte{0x74, 0x10}, OpJcc},
		{"jne rel32", []byte{0x0F, 0x85, 0x00, 0x02, 0x00, 0x00}, OpJcc},
		{"xor eax,eax", []byte{0x31, 0xC0}, OpXor},
		{"mov eax,imm32", []byte{0xB8, 0x2A, 0x00, 0x00, 0x00}, OpMov},
		{"movabs rax,imm64", []byte{0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8}, OpMov},
		{"lea rax,[rip+0x100]", []byte{0x48, 0x8D, 0x05, 0x00, 0x01, 0x00, 0x00}, OpLea},
		{"mov rax,[rbp-8]", []byte{0x48, 0x8B, 0x45, 0xF8}, OpMov},
		{"mov [rsp+0x10],rdi", []byte{0x48, 0x89, 0x7C, 0x24, 0x10}, OpMov},
		{"cmp rdi,imm8", []byte{0x48, 0x83, 0xFF, 0x05}, OpCmp},
		{"test rax,rax", []byte{0x48, 0x85, 0xC0}, OpTest},
		{"call rax", []byte{0xFF, 0xD0}, OpCallInd},
		{"jmp rax", []byte{0xFF, 0xE0}, OpJmpInd},
		{"jmp [rax*8+disp32]", []byte{0xFF, 0x24, 0xC5, 0x00, 0x10, 0x40, 0x00}, OpJmpInd},
		{"push imm32", []byte{0x68, 0x44, 0x33, 0x22, 0x11}, OpPush},
		{"push imm8", []byte{0x6A, 0x01}, OpPush},
		{"movsxd rax,[rdx+rax*4]", []byte{0x48, 0x63, 0x04, 0x82}, OpMovsxd},
		{"movzx eax,byte[rdi]", []byte{0x0F, 0xB6, 0x07}, OpMovzx},
		{"imul rax,rbx", []byte{0x48, 0x0F, 0xAF, 0xC3}, OpImul},
		{"imul rax,rbx,imm8", []byte{0x48, 0x6B, 0xC3, 0x07}, OpImul},
		{"cdq", []byte{0x99}, OpCwd},
		{"cmove rax,rbx", []byte{0x48, 0x0F, 0x44, 0xC3}, OpCmovcc},
		{"sete al", []byte{0x0F, 0x94, 0xC0}, OpSetcc},
		{"shl rax,3", []byte{0x48, 0xC1, 0xE0, 0x03}, OpShl},
		{"and rsp,-16", []byte{0x48, 0x83, 0xE4, 0xF0}, OpAnd},
		{"enter", []byte{0xC8, 0x20, 0x00, 0x00}, OpEnter},
		{"xchg ax nop pause", []byte{0xF3, 0x90}, OpNop},
		{"rep movsb", []byte{0xF3, 0xA4}, OpMovStr},
		{"cpuid", []byte{0x0F, 0xA2}, OpCpuid},
		{"mov r15,rdi", []byte{0x49, 0x89, 0xFF}, OpMov},
		{"bswap eax", []byte{0x0F, 0xC8}, OpBswap},
		{"idiv rbx", []byte{0x48, 0xF7, 0xFB}, OpIdiv},
		{"test rdi, imm32", []byte{0x48, 0xF7, 0xC7, 0x01, 0x00, 0x00, 0x00}, OpTest},
		{"neg rax", []byte{0x48, 0xF7, 0xD8}, OpNeg},
		{"inc dword[rax]", []byte{0xFF, 0x00}, OpInc},
		{"seg-prefixed mov fs", []byte{0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0x00, 0x00, 0x00}, OpMov},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := decodeOne(t, tt.bytes, 0x1000)
			if in.Op != tt.op {
				t.Errorf("op = %v, want %v", in.Op, tt.op)
			}
		})
	}
}

func TestDecodeRelTargets(t *testing.T) {
	tests := []struct {
		name   string
		bytes  []byte
		addr   uint64
		target uint64
	}{
		{"call +0x100", []byte{0xE8, 0x00, 0x01, 0x00, 0x00}, 0x1000, 0x1105},
		{"jmp -5 (self)", []byte{0xE9, 0xFB, 0xFF, 0xFF, 0xFF}, 0x2000, 0x2000},
		{"jmp rel8 +5", []byte{0xEB, 0x05}, 0x3000, 0x3007},
		{"je rel8 -2 (self)", []byte{0x74, 0xFE}, 0x4000, 0x4000},
		{"jne rel32", []byte{0x0F, 0x85, 0x10, 0x00, 0x00, 0x00}, 0x5000, 0x5016},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := decodeOne(t, tt.bytes, tt.addr)
			if !in.HasTarget {
				t.Fatal("HasTarget = false")
			}
			if in.Target != tt.target {
				t.Errorf("target = %#x, want %#x", in.Target, tt.target)
			}
		})
	}
}

func TestDecodeInvalid(t *testing.T) {
	invalid := [][]byte{
		{0x06},       // push es (invalid in 64-bit)
		{0x0E},       // push cs
		{0x27},       // daa
		{0x37},       // aaa
		{0x3F},       // aas
		{0x60},       // pusha
		{0x61},       // popa
		{0x62, 0x00}, // EVEX
		{0x82, 0x00, 0x00},
		{0x9A},             // far call
		{0xC4, 0x00, 0x00}, // VEX3
		{0xC5, 0x00},       // VEX2
		{0xD4},             // aam
		{0xD5},             // aad
		{0xEA},             // far jmp
	}
	for _, b := range invalid {
		if _, err := Decode(b, 0); err == nil {
			t.Errorf("Decode(% x) succeeded, want error", b)
		}
	}
}

// TestDecodeUndefinedGroupForms pins the undefined /reg slots of the
// opcode groups that take a ModRM extension: each raises #UD on
// hardware and must decode as an invalid opcode, while the defined
// slots beside them, XABORT (C6 F8) and XBEGIN (C7 F8) among them,
// still decode.
func TestDecodeUndefinedGroupForms(t *testing.T) {
	undefined := []struct {
		form string
		b    []byte
	}{
		{"FE /2", []byte{0xFE, 0xD1}},
		{"FE /3", []byte{0xFE, 0xD9}},
		{"FE /4", []byte{0xFE, 0xE1}},
		{"FE /5", []byte{0xFE, 0xE9}},
		{"FE /6", []byte{0xFE, 0xF1}},
		{"FE /7", []byte{0xFE, 0xF9}},
		{"FE /7 mem", []byte{0xFE, 0x38}},
		{"8F /1", []byte{0x8F, 0xC9}},
		{"8F /2", []byte{0x8F, 0xD1}},
		{"8F /3", []byte{0x8F, 0xD9}},
		{"8F /4", []byte{0x8F, 0xE1}},
		{"8F /5", []byte{0x8F, 0xE9}},
		{"8F /6", []byte{0x8F, 0xF1}},
		{"8F /7", []byte{0x8F, 0xF9}},
		{"8F /1 mem", []byte{0x8F, 0x08}},
		{"C6 /1", []byte{0xC6, 0xC9, 0x05}},
		{"C6 /2", []byte{0xC6, 0xD1, 0x05}},
		{"C6 /3", []byte{0xC6, 0xD9, 0x05}},
		{"C6 /4", []byte{0xC6, 0xE1, 0x05}},
		{"C6 /5", []byte{0xC6, 0xE9, 0x05}},
		{"C6 /6", []byte{0xC6, 0xF1, 0x05}},
		{"C6 /7", []byte{0xC6, 0xF9, 0x05}},
		{"C6 /7 mem", []byte{0xC6, 0x38, 0x05}},
		{"C7 /1", []byte{0xC7, 0xC9, 0x01, 0x00, 0x00, 0x00}},
		{"C7 /2", []byte{0xC7, 0xD1, 0x01, 0x00, 0x00, 0x00}},
		{"C7 /3", []byte{0xC7, 0xD9, 0x01, 0x00, 0x00, 0x00}},
		{"C7 /4", []byte{0xC7, 0xE1, 0x01, 0x00, 0x00, 0x00}},
		{"C7 /5", []byte{0xC7, 0xE9, 0x01, 0x00, 0x00, 0x00}},
		{"C7 /6", []byte{0xC7, 0xF1, 0x01, 0x00, 0x00, 0x00}},
		{"C7 /7", []byte{0xC7, 0xF9, 0x01, 0x00, 0x00, 0x00}},
		{"C7 /7 mem", []byte{0xC7, 0x38, 0x01, 0x00, 0x00, 0x00}},
		{"REX.W C7 /1", []byte{0x48, 0xC7, 0xC9, 0x01, 0x00, 0x00, 0x00}},
		{"FF /7", []byte{0xFF, 0xF8}},
	}
	for _, tc := range undefined {
		if in, err := Decode(tc.b, 0x1000); !errors.Is(err, ErrInvalidOpcode) {
			t.Errorf("%s (% x) = %+v, %v; want ErrInvalidOpcode", tc.form, tc.b, in, err)
		}
	}
	defined := []struct {
		form string
		b    []byte
	}{
		{"FE /0", []byte{0xFE, 0xC1}},
		{"FE /1", []byte{0xFE, 0xC9}},
		{"8F /0", []byte{0x8F, 0xC1}},
		{"C6 /0", []byte{0xC6, 0xC1, 0x05}},
		{"C7 /0", []byte{0xC7, 0xC1, 0x01, 0x00, 0x00, 0x00}},
		{"C6 F8 (xabort)", []byte{0xC6, 0xF8, 0x05}},
		{"C7 F8 (xbegin)", []byte{0xC7, 0xF8, 0x10, 0x00, 0x00, 0x00}},
		{"FF /6", []byte{0xFF, 0xF1}},
	}
	for _, tc := range defined {
		if in, err := Decode(tc.b, 0x1000); err != nil || in.Len != len(tc.b) {
			t.Errorf("%s (% x) = %+v, %v; want a %d-byte instruction", tc.form, tc.b, in, err, len(tc.b))
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := []byte{0x48, 0x81, 0xEC, 0x88, 0x01, 0x00, 0x00} // sub rsp, 0x188
	for n := 0; n < len(full); n++ {
		if _, err := Decode(full[:n], 0); err == nil {
			t.Errorf("Decode(%d-byte prefix) succeeded, want error", n)
		}
	}
}

func TestDecodeRIPRelative(t *testing.T) {
	// lea rax, [rip+0x36d8b8] at address 0xb1 (paper Figure 4a line 3).
	in := decodeOne(t, []byte{0x48, 0x8D, 0x05, 0xB8, 0xD8, 0x36, 0x00}, 0xB1)
	if in.Op != OpLea {
		t.Fatalf("op = %v, want lea", in.Op)
	}
	if len(in.Args) != 2 || in.Args[1].Kind != KindMem || !in.Args[1].Mem.RIPRel {
		t.Fatalf("want RIP-relative mem operand, got %+v", in.Args)
	}
	consts := in.Constants()
	want := uint64(0xB1 + 7 + 0x36d8b8)
	if len(consts) != 1 || consts[0] != want {
		t.Fatalf("Constants() = %#x, want [%#x]", consts, want)
	}
}

func TestDecodeJumpTableOperand(t *testing.T) {
	// jmp qword [rax*8 + 0x401000]
	in := decodeOne(t, []byte{0xFF, 0x24, 0xC5, 0x00, 0x10, 0x40, 0x00}, 0x1000)
	m, ok := in.IndirectMem()
	if !ok {
		t.Fatal("IndirectMem() not present")
	}
	if m.Base != RegNone || m.Index != RAX || m.Scale != 8 || m.Disp != 0x401000 {
		t.Fatalf("mem = %+v", m)
	}
}

func TestStackDelta(t *testing.T) {
	tests := []struct {
		name  string
		bytes []byte
		delta int64
		known bool
	}{
		{"push rbp", []byte{0x55}, -8, true},
		{"pop rbx", []byte{0x5B}, 8, true},
		{"sub rsp,8", []byte{0x48, 0x83, 0xEC, 0x08}, -8, true},
		{"add rsp,0x188", []byte{0x48, 0x81, 0xC4, 0x88, 0x01, 0x00, 0x00}, 0x188, true},
		{"ret", []byte{0xC3}, 8, true},
		{"call", []byte{0xE8, 0, 0, 0, 0}, 0, true},
		{"mov rax,rbx", []byte{0x48, 0x89, 0xD8}, 0, true},
		{"and rsp,-16", []byte{0x48, 0x83, 0xE4, 0xF0}, 0, false},
		{"leave", []byte{0xC9}, 0, false},
		{"mov rsp,rbp", []byte{0x48, 0x89, 0xEC}, 0, false},
		{"sub rsp,rax", []byte{0x48, 0x29, 0xC4}, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := decodeOne(t, tt.bytes, 0)
			d, known := StackDelta(&in)
			if d != tt.delta || known != tt.known {
				t.Errorf("StackDelta() = (%d, %v), want (%d, %v)", d, known, tt.delta, tt.known)
			}
		})
	}
}

func TestReadsWrites(t *testing.T) {
	tests := []struct {
		name   string
		bytes  []byte
		reads  RegSet
		writes RegSet
	}{
		{
			"mov rax,rbx",
			[]byte{0x48, 0x89, 0xD8},
			RegSet(0).Add(RBX),
			RegSet(0).Add(RAX),
		},
		{
			"push rbp (save, not use)",
			[]byte{0x55},
			RegSet(0).Add(RSP),
			RegSet(0).Add(RSP),
		},
		{
			"xor eax,eax (zeroing idiom)",
			[]byte{0x31, 0xC0},
			RegSet(0),
			RegSet(0).Add(RAX),
		},
		{
			"add rax,rbx",
			[]byte{0x48, 0x01, 0xD8},
			RegSet(0).Add(RAX).Add(RBX),
			RegSet(0).Add(RAX),
		},
		{
			"mov rax,[rbx+8]",
			[]byte{0x48, 0x8B, 0x43, 0x08},
			RegSet(0).Add(RBX),
			RegSet(0).Add(RAX),
		},
		{
			"lea rax,[rbx+rcx*2]",
			[]byte{0x48, 0x8D, 0x04, 0x4B},
			RegSet(0).Add(RBX).Add(RCX),
			RegSet(0).Add(RAX),
		},
		{
			"call rel32 clobbers caller-saved",
			[]byte{0xE8, 0, 0, 0, 0},
			RegSet(0),
			RegSet(0).Add(RAX).Add(RCX).Add(RDX).Add(RSI).Add(RDI).Add(R8).Add(R9).Add(R10).Add(R11),
		},
		{
			"jmp rbx reads rbx",
			[]byte{0xFF, 0xE3},
			RegSet(0).Add(RBX),
			RegSet(0),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			in := decodeOne(t, tt.bytes, 0)
			if got := Reads(&in); got != tt.reads {
				t.Errorf("Reads() = %v, want %v", got, tt.reads)
			}
			if got := Writes(&in); got != tt.writes {
				t.Errorf("Writes() = %v, want %v", got, tt.writes)
			}
		})
	}
}

func TestDecodePaperFigure4(t *testing.T) {
	// The function body from Figure 4a of the paper, byte-for-byte.
	code := []byte{
		0x55,                                     // b0: push rbp
		0x48, 0x8D, 0x05, 0xB8, 0xD8, 0x36, 0x00, // b1: lea rax,[rip+0x36d8b8]
		0x48, 0x8D, 0x6F, 0x50, // b8: lea rbp,[rdi+0x50]
		0x53,                                     // bc: push rbx
		0x48, 0x8D, 0x9F, 0xB0, 0x00, 0x00, 0x00, // bd: lea rbx,[rdi+0xb0]
		0x48, 0x83, 0xEC, 0x08, // c4: sub rsp,0x8
		0x48, 0x89, 0x07, // c8: mov [rdi],rax
		0x0F, 0x1F, 0x44, 0x00, 0x00, // cb: nop dword [rax+rax]
		0x48, 0x83, 0xEB, 0x18, // d0: sub rbx,0x18
		0x48, 0x8B, 0x3B, // d4: mov rdi,[rbx]
		0xE8, 0x00, 0x00, 0x00, 0x00, // d7: call qfree
		0x48, 0x39, 0xDD, // dc: cmp rbp,rbx
		0x75, 0xEF, // df: jne d0
		0x48, 0x83, 0xC4, 0x08, // e1: add rsp,0x8
		0x5B, // e5: pop rbx
		0x5D, // e6: pop rbp
		0xC3, // e7: ret
	}
	insts, err := DecodeAll(code, 0xB0)
	if err != nil {
		t.Fatalf("DecodeAll: %v", err)
	}
	wantAddrs := []uint64{0xB0, 0xB1, 0xB8, 0xBC, 0xBD, 0xC4, 0xC8, 0xCB,
		0xD0, 0xD4, 0xD7, 0xDC, 0xDF, 0xE1, 0xE5, 0xE6, 0xE7}
	if len(insts) != len(wantAddrs) {
		t.Fatalf("decoded %d instructions, want %d", len(insts), len(wantAddrs))
	}
	for k, in := range insts {
		if in.Addr != wantAddrs[k] {
			t.Errorf("inst %d at %#x, want %#x", k, in.Addr, wantAddrs[k])
		}
	}
	// The jne at 0xdf targets 0xd0.
	jne := insts[12]
	if jne.Op != OpJcc || !jne.HasTarget || jne.Target != 0xD0 {
		t.Errorf("jne = %+v, want jcc → 0xd0", jne)
	}
	// Net stack delta over the whole body (push,push,sub 8, add 8,pop,pop,ret)
	var total int64
	for _, in := range insts[:len(insts)-1] { // exclude ret
		d, known := StackDelta(&in)
		if !known {
			t.Errorf("unexpected unknown delta at %#x", in.Addr)
		}
		total += d
	}
	if total != 0 {
		t.Errorf("net stack delta = %d, want 0", total)
	}
}
