package verifier

import (
	"encoding/binary"

	"repro/internal/isa"
)

// Structural state fingerprints gate the pruning deep compare, mirroring
// the kernel's hashed explored_states lists. pruneOrRecord only runs
// stateSubsumes against recorded snapshots whose fingerprint matches the
// candidate's, so the O(snapshots) scan per instruction visit degenerates
// to a few u64 compares in the common no-match case.
//
// Soundness requirement: stateSubsumes(old, new) must imply
// fp(old) == fp(new) — a fingerprint mismatch may only skip pairs that
// the deep compare would have rejected anyway, never a pair it would
// have pruned. The fingerprint therefore folds exactly the fields
// stateSubsumes compares for *equality* (the "rigid" structure): frame
// and ref counts, per-frame call sites, register types, and the
// per-type identity fields (stack/ctx offsets, map identity + offset,
// BTF ids, mem sizes). Fields compared by inclusion — scalar bounds,
// tnums, packet ranges, MaybeNull, and every stack slot (SlotMisc
// subsumes Zero/Spill) — are deliberately left out.

// le is the canonical byte order.
var le = binary.LittleEndian

const (
	fpOffset64 = 14695981039346656037
	fpPrime64  = 1099511628211
)

func fpMix(h, v uint64) uint64 {
	h ^= v
	h *= fpPrime64
	return h
}

// Whole-program fingerprints key the verdict cache. The canonical byte
// form folds every field that can influence verification or the returned
// Result: the program attributes (type, name, attach target, license)
// and, per instruction, opcode/dst/src/off/imm/imm64 plus the Meta
// provenance flags. Two programs with equal canonical bytes are
// verified identically by construction; the 64-bit fingerprint is only
// the cache index — lookups compare the stored canonical bytes exactly,
// so a fingerprint collision degrades to a cache miss, never to a wrong
// verdict.
//
// Each encoded shape has exactly one field walker (walkProgram,
// walkTrace), which emits its fields in order to a sink. The sinks give
// the three views of one encoding: hashSink folds the fields into the
// fingerprint, appendSink materializes the canonical bytes, and
// matchSink compares stored canonical bytes against a live program.
// Sinks are small values whose methods return the updated sink, so the
// generic walkers run without allocating.

// encSink receives the fields of a canonical encoding, in order.
type encSink[S any] interface {
	// header folds the program type and license.
	header(t isa.ProgramType, gpl bool) S
	// str folds a length-prefixed string (the prefix keeps "ab"+"c" and
	// "a"+"bc" apart).
	str(s string) S
	// u32 folds a count or a pc.
	u32(v uint32) S
	// insn folds one instruction: opcode/dst/src, off, imm, imm64, meta.
	insn(ins *isa.Instruction) S
}

// walkProgram emits p's verification-relevant identity: attributes,
// instruction count, instructions.
func walkProgram[S encSink[S]](p *isa.Program, s S) S {
	s = s.header(p.Type, p.GPLCompatible)
	s = s.str(p.Name)
	s = s.str(p.AttachTo)
	s = s.u32(uint32(len(p.Insns)))
	for i := range p.Insns {
		s = s.insn(&p.Insns[i])
	}
	return s
}

// walkTrace emits the verification-relevant identity of a forced
// execution trace: program attributes that shape the entry state and
// helper availability (type, attach target, license — the name never
// influences verification), then each executed instruction with its pc,
// then the boundary pc. The pcs matter, not just the instruction bytes:
// jump targets go through slot arithmetic over the *unexecuted* insns
// between them, and the prune snapshots a trace run records are keyed by
// pc — two programs whose traces execute identical bytes at different
// positions must not share a snapshot. The boundary pc is included for
// the same reason: when the last executed instruction is a jump, call,
// or subframe exit, where the resumed exploration continues depends on
// slot layout the executed bytes alone do not pin.
func walkTrace[S encSink[S]](p *isa.Program, pcs []int32, end int, s S) S {
	s = s.header(p.Type, p.GPLCompatible)
	s = s.str(p.AttachTo)
	s = s.u32(uint32(len(pcs)))
	for _, pc := range pcs {
		s = s.u32(uint32(pc))
		s = s.insn(&p.Insns[pc])
	}
	return s.u32(uint32(end))
}

// hashSink folds fields word-at-a-time into an xor-multiply hash (three
// steps per instruction instead of eighteen byte folds). It is an
// independent hash, not FNV-1a over the canonical bytes; the only
// consistency requirement is that Lookup and Insert key with the same
// function.
type hashSink uint64

func (h hashSink) header(t isa.ProgramType, gpl bool) hashSink {
	return hashSink(fpMix(uint64(h), uint64(t)<<1|uint64(boolByte(gpl))))
}

func (h hashSink) str(s string) hashSink { return hashSink(fpStr(uint64(h), s)) }

func (h hashSink) u32(v uint32) hashSink { return hashSink(fpMix(uint64(h), uint64(v))) }

func (h hashSink) insn(ins *isa.Instruction) hashSink {
	x := fpMix(uint64(h), uint64(ins.Opcode)|uint64(ins.Dst)<<8|uint64(ins.Src)<<16|
		uint64(uint16(ins.Off))<<24|uint64(insnMetaByte(ins))<<40)
	x = fpMix(x, uint64(uint32(ins.Imm)))
	return hashSink(fpMix(x, ins.Imm64))
}

// appendSink builds the canonical bytes: one byte each for type and
// license, little-endian integers, and 18 bytes per instruction —
// opcode/dst/src, off, imm, imm64, then the meta byte.
type appendSink []byte

func (b appendSink) header(t isa.ProgramType, gpl bool) appendSink {
	return append(b, byte(t), boolByte(gpl))
}

func (b appendSink) str(s string) appendSink { return append(b.u32(uint32(len(s))), s...) }

func (b appendSink) u32(v uint32) appendSink { return le.AppendUint32(b, v) }

func (b appendSink) insn(ins *isa.Instruction) appendSink {
	b = append(b, ins.Opcode, ins.Dst, ins.Src)
	b = le.AppendUint16(b, uint16(ins.Off))
	b = le.AppendUint32(b, uint32(ins.Imm))
	b = le.AppendUint64(b, ins.Imm64)
	return append(b, insnMetaByte(ins))
}

// matchSink consumes stored canonical bytes field by field, decoding
// appendSink's layout in place so a match allocates nothing. ok turns
// false at the first difference; TestMatchCanonical pins the two sinks
// together.
type matchSink struct {
	rest []byte
	ok   bool
}

// take consumes and returns the next n bytes, or reports a mismatch when
// fewer remain.
func (m *matchSink) take(n int) ([]byte, bool) {
	if !m.ok || len(m.rest) < n {
		m.ok = false
		return nil, false
	}
	b := m.rest[:n]
	m.rest = m.rest[n:]
	return b, true
}

func (m matchSink) header(t isa.ProgramType, gpl bool) matchSink {
	b, ok := m.take(2)
	m.ok = ok && b[0] == byte(t) && b[1] == boolByte(gpl)
	return m
}

func (m matchSink) str(s string) matchSink {
	m = m.u32(uint32(len(s)))
	b, ok := m.take(len(s))
	m.ok = ok && string(b) == s
	return m
}

func (m matchSink) u32(v uint32) matchSink {
	b, ok := m.take(4)
	m.ok = ok && le.Uint32(b) == v
	return m
}

func (m matchSink) insn(ins *isa.Instruction) matchSink {
	b, ok := m.take(18)
	m.ok = ok && b[0] == ins.Opcode && b[1] == ins.Dst && b[2] == ins.Src &&
		le.Uint16(b[3:]) == uint16(ins.Off) && le.Uint32(b[5:]) == uint32(ins.Imm) &&
		le.Uint64(b[9:]) == ins.Imm64 && b[17] == insnMetaByte(ins)
	return m
}

// ProgramFingerprint returns the 64-bit verdict-cache key for p. It is
// computed on every Verify call, hit or miss, so it hashes the walk
// directly instead of materializing the canonical bytes.
func ProgramFingerprint(p *isa.Program) uint64 {
	return uint64(walkProgram(p, hashSink(fpOffset64)))
}

// CanonicalProgramBytes serializes p's verification-relevant identity.
func CanonicalProgramBytes(p *isa.Program) []byte {
	return walkProgram(p, make(appendSink, 0, 14+len(p.Name)+len(p.AttachTo)+18*len(p.Insns)))
}

// MatchCanonical reports whether canon is exactly CanonicalProgramBytes(p),
// without materializing p's byte form — the verdict-cache hit path
// compares a stored entry against a live program without allocating.
func MatchCanonical(canon []byte, p *isa.Program) bool {
	m := walkProgram(p, matchSink{rest: canon, ok: true})
	return m.ok && len(m.rest) == 0
}

// boolByte encodes a flag as one canonical byte.
func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// insnMetaByte packs the Meta provenance flags into one canonical byte.
func insnMetaByte(ins *isa.Instruction) byte {
	var meta byte
	if ins.Meta.RewriteEmitted {
		meta |= 1
	}
	if ins.Meta.Sanitized {
		meta |= 2
	}
	if ins.Meta.ProbeMem {
		meta |= 4
	}
	return meta
}

// fpStr folds a length-prefixed string word-wise into an xor-multiply
// running hash (the length prefix keeps "ab"+"c" and "a"+"bc" apart).
func fpStr(h uint64, s string) uint64 {
	h = fpMix(h, uint64(len(s)))
	for len(s) >= 8 {
		h = fpMix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return fpMix(h, tail)
}

// regFPContrib folds one register's rigid identity, keyed by its
// (frame, register) position, into a single 64-bit contribution. The
// state fingerprint is the XOR of these contributions combined with the
// cheap structural base (stateFPBase). XOR composition is what makes
// the cache incremental: rewriting one register replaces exactly one
// term, so pruneOrRecord refreshes only the registers the interpreter
// dirtied since the previous prune comparison.
func regFPContrib(fi, r int, reg *RegState) uint64 {
	h := fpMix(fpOffset64, uint64(fi)<<8|uint64(r))
	h = fpMix(h, uint64(reg.Type))
	switch reg.Type {
	case PtrToStack, PtrToCtx, PtrToPacket:
		h = fpMix(h, uint64(int64(reg.Off)))
	case PtrToMapValue:
		h = fpMix(h, reg.Map.KernAddr)
		h = fpMix(h, uint64(int64(reg.Off)))
	case ConstPtrToMap:
		h = fpMix(h, reg.Map.KernAddr)
	case PtrToBTFID:
		h = fpMix(h, uint64(int64(reg.BTF)))
		h = fpMix(h, uint64(int64(reg.Off)))
	case PtrToMem:
		h = fpMix(h, uint64(int64(reg.Off)))
		h = fpMix(h, uint64(reg.MemSize))
	}
	return h
}

// stateFPBase folds the frame/reference structure: frame count, ref
// count, per-frame call sites. O(frames), recomputed on every
// fingerprint read — tracking it incrementally would cost more than the
// walk.
func stateFPBase(s *State) uint64 {
	h := uint64(fpOffset64)
	h = fpMix(h, uint64(len(s.Frames)))
	h = fpMix(h, uint64(len(s.Refs)))
	for _, f := range s.Frames {
		h = fpMix(h, uint64(int64(f.CallSite)))
	}
	return h
}

// stateFingerprint folds the rigid structure of s into 64 bits,
// refreshing the per-register contribution cache sparsely: a state with
// a valid cache and a clean dirty mask costs O(frames); a dirty state
// recomputes only the dirtied current-frame registers. Frame pushes and
// pops invalidate the whole cache (State.fpInvalidate), so dirty bits
// always refer to the frame that was current when they were set.
func stateFingerprint(s *State) uint64 {
	if !s.fpOK {
		x := uint64(0)
		for fi, f := range s.Frames {
			for r := range f.Regs {
				c := regFPContrib(fi, r, &f.Regs[r])
				f.fpc[r] = c
				x ^= c
			}
		}
		s.fpXor = x
		s.fpOK = true
		s.fpDirty = 0
	} else if s.fpDirty != 0 {
		fi := len(s.Frames) - 1
		f := s.Frames[fi]
		for r := 0; r < isa.NumReg; r++ {
			if s.fpDirty&(1<<r) == 0 {
				continue
			}
			c := regFPContrib(fi, r, &f.Regs[r])
			s.fpXor ^= f.fpc[r] ^ c
			f.fpc[r] = c
		}
		s.fpDirty = 0
	}
	return fpMix(stateFPBase(s), s.fpXor)
}

// stateFingerprintFresh is the cache-free reference implementation:
// a full walk that neither reads nor writes the contribution caches.
// The fpAudit cross-check (pruneOrRecord) and the incremental-soundness
// tests compare it against stateFingerprint.
func stateFingerprintFresh(s *State) uint64 {
	x := uint64(0)
	for fi, f := range s.Frames {
		for r := range f.Regs {
			x ^= regFPContrib(fi, r, &f.Regs[r])
		}
	}
	return fpMix(stateFPBase(s), x)
}
