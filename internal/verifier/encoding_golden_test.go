package verifier

import (
	"encoding/hex"
	"testing"

	"repro/internal/isa"
)

// goldenPrograms are fixed programs whose persisted encodings are pinned
// below. Together they cover every lane of the program encoding: both
// license values, empty, short and multi-word strings, a wide load, a
// negative offset and immediate, a full 64-bit immediate, and each Meta
// provenance flag.
func goldenPrograms() []*isa.Program {
	probe := isa.LoadMem(isa.SizeDW, isa.R0, isa.R1, -8)
	probe.Meta.ProbeMem = true
	rewritten := isa.LoadImm64(isa.R3, 0xfedcba9876543210)
	rewritten.Meta.RewriteEmitted = true
	sanitized := isa.StoreMem(isa.SizeW, isa.R10, isa.R3, -16)
	sanitized.Meta.Sanitized = true
	return []*isa.Program{
		{
			Type:          isa.ProgTypeSocketFilter,
			GPLCompatible: true,
			Insns:         []isa.Instruction{isa.Mov64Imm(isa.R0, 0), isa.Exit()},
		},
		{
			Type:     isa.ProgTypeKprobe,
			Name:     "map_probe",
			AttachTo: "do_sys_open",
			Insns: []isa.Instruction{
				isa.LoadMapFD(isa.R1, 3),
				isa.StoreImm(isa.SizeW, isa.R10, -4, -1),
				probe,
				isa.JumpImm(isa.JEQ, isa.R0, 7, -3),
				isa.Exit(),
			},
		},
		{
			Type:          isa.ProgTypeTracepoint,
			GPLCompatible: true,
			Name:          "golden",
			AttachTo:      "sys_enter_openat_with_a_long_name",
			Insns: []isa.Instruction{
				rewritten,
				sanitized,
				isa.Alu32Imm(isa.ALUAdd, isa.R3, -0x12345678),
				isa.Call(1),
				isa.Exit(),
			},
		},
	}
}

// TestPersistedEncodingsGolden pins ProgramFingerprint and
// CanonicalProgramBytes to fixed recorded values. Both are persisted — checkpointed verdict caches store the
// fingerprint as the entry key and the canonical bytes as the entry's
// identity — so a change to either silently orphans every saved cache.
func TestPersistedEncodingsGolden(t *testing.T) {
	want := []struct {
		fp    uint64
		canon string
	}{
		{0xe646206defcb7f08, "0101000000000000000002000000b70000000000000000000000000000000000950000000000000000000000000000000000"},
		{0x8f10335050c5e97d, "0200090000006d61705f70726f62650b000000646f5f7379735f6f70656e05000000180101000003000000030000000000000000620a00fcffffffffff000000000000000000790001f8ff00000000000000000000000004150000fdff07000000000000000000000000950000000000000000000000000000000000"},
		{0x8faa5a2c25ca83da, "030106000000676f6c64656e210000007379735f656e7465725f6f70656e61745f776974685f615f6c6f6e675f6e616d65050000001803000000103254761032547698badcfe01630a03f0ff00000000000000000000000002040300000088a9cbed000000000000000000850000000001000000000000000000000000950000000000000000000000000000000000"},
	}
	for i, p := range goldenPrograms() {
		fp, canon := ProgramFingerprint(p), hex.EncodeToString(CanonicalProgramBytes(p))
		if fp != want[i].fp {
			t.Errorf("program %d: fingerprint %#016x, want %#016x", i, fp, want[i].fp)
		}
		if canon != want[i].canon {
			t.Errorf("program %d: canonical bytes\n got %s\nwant %s", i, canon, want[i].canon)
		}
	}
}
