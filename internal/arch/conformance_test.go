// Conformance suite for arch.ISA backends: every registered backend
// must satisfy the same structural contract and decode its golden
// encodings into the shared semantic classes. A new backend plugs in
// by adding one goldenSet — the harness itself is ISA-neutral.
package arch_test

import (
	"testing"

	"fetch/internal/a64"
	"fetch/internal/arch"
	"fetch/internal/x64"
)

// goldenInst is one encoding with its expected classification.
type goldenInst struct {
	name    string
	enc     []byte
	op      arch.Op
	cond    arch.Cond // checked only for OpJcc
	gate    arch.GateEffect
	delta   int64 // expected stack delta when deltaOK
	deltaOK bool
}

// goldenSet is one backend's conformance vector: the canonical
// encodings of the shapes the pipeline keys on.
type goldenSet struct {
	isa arch.ISA

	prologue  []goldenInst // the frame-establishing entry shape, in order
	transfers []goldenInst // call/jmp/jcc/ret and indirect forms
	gates     []goldenInst // §IV-C gate definitions and the self-test
	padding   []goldenInst // inter-function padding words
}

func x64GoldenSet() goldenSet {
	return goldenSet{
		isa: x64.Arch,
		prologue: []goldenInst{
			{name: "endbr64", enc: []byte{0xF3, 0x0F, 0x1E, 0xFA}, op: arch.OpEndbr64, deltaOK: true},
			{name: "push rbp", enc: []byte{0x55}, op: arch.OpPush, delta: -8, deltaOK: true},
			{name: "mov rbp, rsp", enc: []byte{0x48, 0x89, 0xE5}, op: arch.OpMov, deltaOK: true},
			{name: "sub rsp, 0x20", enc: []byte{0x48, 0x83, 0xEC, 0x20}, op: arch.OpSub, delta: -0x20, deltaOK: true},
			{name: "pop rbp", enc: []byte{0x5D}, op: arch.OpPop, delta: 8, deltaOK: true},
		},
		transfers: []goldenInst{
			{name: "call rel32", enc: []byte{0xE8, 0, 0, 0, 0}, op: arch.OpCall, deltaOK: true},
			{name: "jmp rel32", enc: []byte{0xE9, 0, 0, 0, 0}, op: arch.OpJmp, deltaOK: true},
			{name: "ja rel32", enc: []byte{0x0F, 0x87, 0, 0, 0, 0}, op: arch.OpJcc, cond: arch.CondA, deltaOK: true},
			{name: "jae rel8", enc: []byte{0x73, 0}, op: arch.OpJcc, cond: arch.CondAE, deltaOK: true},
			{name: "jmp rax", enc: []byte{0xFF, 0xE0}, op: arch.OpJmpInd, deltaOK: true},
			{name: "call rax", enc: []byte{0xFF, 0xD0}, op: arch.OpCallInd, deltaOK: true},
			{name: "ret", enc: []byte{0xC3}, op: arch.OpRet, delta: 8, deltaOK: true},
			{name: "ud2", enc: []byte{0x0F, 0x0B}, op: arch.OpUd2, deltaOK: true},
		},
		gates: []goldenInst{
			{name: "xor edi, edi", enc: []byte{0x31, 0xFF}, op: arch.OpXor, gate: arch.GateSetZero, deltaOK: true},
			{name: "mov edi, 7", enc: []byte{0xBF, 7, 0, 0, 0}, op: arch.OpMov, gate: arch.GateSetNonZero, deltaOK: true},
			{name: "mov edi, 0", enc: []byte{0xBF, 0, 0, 0, 0}, op: arch.OpMov, gate: arch.GateSetZero, deltaOK: true},
			{name: "mov rdi, rax", enc: []byte{0x48, 0x89, 0xC7}, op: arch.OpMov, gate: arch.GateSetUnknown, deltaOK: true},
			{name: "test rdi, rdi", enc: []byte{0x48, 0x85, 0xFF}, op: arch.OpTest, gate: arch.GateKeep, deltaOK: true},
		},
		padding: []goldenInst{
			{name: "nop", enc: []byte{0x90}, op: arch.OpNop, deltaOK: true},
			{name: "nopw", enc: []byte{0x66, 0x90}, op: arch.OpNop, deltaOK: true},
			{name: "int3", enc: []byte{0xCC}, op: arch.OpInt3, deltaOK: true},
		},
	}
}

func a64GoldenSet() goldenSet {
	return goldenSet{
		isa: a64.Arch,
		prologue: []goldenInst{
			{name: "bti c", enc: []byte{0x5F, 0x24, 0x03, 0xD5}, op: arch.OpEndbr64, deltaOK: true},
			{name: "stp x29, x30, [sp, #-16]!", enc: []byte{0xFD, 0x7B, 0xBF, 0xA9}, op: arch.OpPush, delta: -16, deltaOK: true},
			{name: "mov x29, sp", enc: []byte{0xFD, 0x03, 0x00, 0x91}, op: arch.OpMov, deltaOK: true},
			{name: "sub sp, sp, #0x20", enc: []byte{0xFF, 0x83, 0x00, 0xD1}, op: arch.OpSub, delta: -0x20, deltaOK: true},
			{name: "ldp x29, x30, [sp], #16", enc: []byte{0xFD, 0x7B, 0xC1, 0xA8}, op: arch.OpPop, delta: 16, deltaOK: true},
		},
		transfers: []goldenInst{
			{name: "bl", enc: []byte{0x10, 0x00, 0x00, 0x94}, op: arch.OpCall, deltaOK: true},
			{name: "b", enc: []byte{0x10, 0x00, 0x00, 0x14}, op: arch.OpJmp, deltaOK: true},
			{name: "b.hi", enc: []byte{0x48, 0x00, 0x00, 0x54}, op: arch.OpJcc, cond: arch.CondA, deltaOK: true},
			{name: "b.hs", enc: []byte{0x42, 0x00, 0x00, 0x54}, op: arch.OpJcc, cond: arch.CondAE, deltaOK: true},
			{name: "br x2", enc: []byte{0x40, 0x00, 0x1F, 0xD6}, op: arch.OpJmpInd, deltaOK: true},
			{name: "blr x2", enc: []byte{0x40, 0x00, 0x3F, 0xD6}, op: arch.OpCallInd, deltaOK: true},
			{name: "ret", enc: []byte{0xC0, 0x03, 0x5F, 0xD6}, op: arch.OpRet, deltaOK: true},
			{name: "udf", enc: []byte{0x00, 0x00, 0x00, 0x00}, op: arch.OpUd2, deltaOK: true},
		},
		gates: []goldenInst{
			{name: "movz x0, #0", enc: []byte{0x00, 0x00, 0x80, 0xD2}, op: arch.OpMov, gate: arch.GateSetZero, deltaOK: true},
			{name: "movz x0, #7", enc: []byte{0xE0, 0x00, 0x80, 0xD2}, op: arch.OpMov, gate: arch.GateSetNonZero, deltaOK: true},
			{name: "movk x0, #1, lsl #16", enc: []byte{0x20, 0x00, 0xA0, 0xF2}, op: arch.OpOr, gate: arch.GateSetUnknown, deltaOK: true},
			{name: "mov x0, x1", enc: []byte{0xE0, 0x03, 0x01, 0xAA}, op: arch.OpMov, gate: arch.GateSetUnknown, deltaOK: true},
			{name: "tst x0, x0", enc: []byte{0x1F, 0x00, 0x00, 0xEA}, op: arch.OpTest, gate: arch.GateKeep, deltaOK: true},
		},
		padding: []goldenInst{
			{name: "nop", enc: []byte{0x1F, 0x20, 0x03, 0xD5}, op: arch.OpNop, deltaOK: true},
			{name: "brk #0", enc: []byte{0x00, 0x00, 0x20, 0xD4}, op: arch.OpInt3, deltaOK: true},
		},
	}
}

func goldenSets() []goldenSet { return []goldenSet{x64GoldenSet(), a64GoldenSet()} }

// TestConformanceStructure checks the structural contract every
// backend must satisfy: registry round-trip, sane geometry, and
// coherent register facts.
func TestConformanceStructure(t *testing.T) {
	for _, g := range goldenSets() {
		isa := g.isa
		t.Run(isa.Name(), func(t *testing.T) {
			if arch.ForMachine(isa.Machine()) == nil {
				t.Fatalf("backend %s not registered for machine %d", isa.Name(), isa.Machine())
			}
			if got := arch.ForMachine(isa.Machine()); got.Name() != isa.Name() {
				t.Errorf("registry resolves machine %d to %s", isa.Machine(), got.Name())
			}
			if isa.InstAlign() < 1 || isa.MaxInstLen() < isa.InstAlign() {
				t.Errorf("geometry: align=%d max=%d", isa.InstAlign(), isa.MaxInstLen())
			}
			if isa.RegCount() < 8 {
				t.Errorf("register file too small: %d", isa.RegCount())
			}
			if isa.SPReg() == isa.FrameReg() || isa.SPReg() == isa.GateReg() {
				t.Errorf("SP/frame/gate registers collide: %v/%v/%v",
					isa.SPReg(), isa.FrameReg(), isa.GateReg())
			}
			args := isa.ArgRegs()
			if len(args) == 0 {
				t.Fatal("no argument registers")
			}
			if args[0] != isa.GateReg() {
				t.Errorf("gate register %v is not the first argument register %v",
					isa.GateReg(), args[0])
			}
			var argSet arch.RegSet
			for _, r := range args {
				if int(r) >= isa.RegCount() || argSet.Has(r) {
					t.Errorf("ArgRegs lists %v outside the GPR file or twice", r)
				}
				argSet = argSet.Add(r)
			}
			if argSet.Has(isa.SPReg()) || argSet.Has(isa.FrameReg()) {
				t.Error("SP or frame register classified as argument register")
			}
			if isa.CFIRAReg() == isa.CFISPReg() {
				t.Error("CFI RA and SP columns collide")
			}
			if off := isa.CFIEntryOffset(); off < 0 || off > 16 {
				t.Errorf("implausible CFI entry offset %d", off)
			}
		})
	}
}

// TestConformanceGolden decodes each backend's golden encodings and
// checks class, condition translation, gate effects, and stack deltas
// against the shared expectations.
func TestConformanceGolden(t *testing.T) {
	for _, g := range goldenSets() {
		isa := g.isa
		groups := map[string][]goldenInst{
			"prologue":  g.prologue,
			"transfers": g.transfers,
			"gates":     g.gates,
			"padding":   g.padding,
		}
		for group, cases := range groups {
			for _, c := range cases {
				t.Run(isa.Name()+"/"+group+"/"+c.name, func(t *testing.T) {
					in, err := isa.Decode(c.enc, 0x401000)
					if err != nil {
						t.Fatalf("decode: %v", err)
					}
					if in.Len != len(c.enc) {
						t.Errorf("length %d, want %d", in.Len, len(c.enc))
					}
					if in.Op != c.op {
						t.Fatalf("op %v, want %v", in.Op, c.op)
					}
					if !in.Classified {
						t.Error("golden instruction unclassified")
					}
					if in.Op == arch.OpJcc && in.Cond != c.cond {
						t.Errorf("cond %v, want %v", in.Cond, c.cond)
					}
					if group == "gates" {
						if got := isa.GateEffect(&in); got != c.gate {
							t.Errorf("gate effect %v, want %v", got, c.gate)
						}
					}
					if group == "padding" && !in.IsPadding() {
						t.Error("padding instruction not IsPadding")
					}
					if c.deltaOK {
						d, known := isa.StackDelta(&in)
						if !known {
							t.Errorf("stack delta unknown")
						} else if c.delta != 0 && d != c.delta {
							t.Errorf("stack delta %d, want %d", d, c.delta)
						}
					}
				})
			}
		}
	}
}

// TestConformanceGateTest checks the §IV-C gate self-test shape is
// recognized by the shared structural matcher on every backend.
func TestConformanceGateTest(t *testing.T) {
	shapes := map[string][]byte{
		"x64": {0x48, 0x85, 0xFF},       // test rdi, rdi
		"a64": {0x1F, 0x00, 0x00, 0xEA}, // tst x0, x0
	}
	for _, g := range goldenSets() {
		isa := g.isa
		enc, ok := shapes[isa.Name()]
		if !ok {
			t.Fatalf("no gate-test shape for backend %s", isa.Name())
		}
		in, err := isa.Decode(enc, 0x1000)
		if err != nil {
			t.Fatalf("%s: %v", isa.Name(), err)
		}
		if !arch.IsGateTest(&in, isa.GateReg()) {
			t.Errorf("%s: gate self-test not recognized: %v", isa.Name(), &in)
		}
	}
}

// TestConformancePaddingDelta ensures padding never perturbs stack
// heights, and that decode length divides the alignment contract.
func TestConformancePaddingDelta(t *testing.T) {
	for _, g := range goldenSets() {
		isa := g.isa
		for _, c := range g.padding {
			in, err := isa.Decode(c.enc, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", isa.Name(), c.name, err)
			}
			if d, known := isa.StackDelta(&in); !known || d != 0 {
				t.Errorf("%s/%s: padding delta %d known=%v", isa.Name(), c.name, d, known)
			}
			if in.Len%isa.InstAlign() != 0 {
				t.Errorf("%s/%s: length %d violates alignment %d",
					isa.Name(), c.name, in.Len, isa.InstAlign())
			}
		}
	}
}
