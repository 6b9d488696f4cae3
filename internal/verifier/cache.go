package verifier

import (
	"errors"

	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/maps"
)

// Verdict caching (ROADMAP item 2, "incremental re-verification").
//
// A Cache memoizes two things across Verify calls:
//
//   - whole-program verdicts: sibling shards and mutation chains regenerate
//     byte-identical programs constantly; a hit replays the memoized
//     verdict, counters, and the exact coverage profile the scratch
//     verification produced, so cached-on and cached-off campaigns stay
//     bit-identical;
//   - trace-prefix snapshots: the structured generator's init frame is a
//     forced single-path preamble shared by whole batches of sibling
//     mutants — straight-line code plus unconditional jumps, bpf-to-bpf
//     calls, and subframe returns, up to the first conditional branch —
//     so the abstract state at that first fork is captured once and
//     resumed by every mutant whose trace bytes are unchanged.
//
// Correctness rules, enforced here rather than trusted to implementations:
//
//   - the 64-bit fingerprint is only the index. Every entry carries its
//     canonical program bytes and lookups compare them exactly, so an FNV
//     collision degrades to a miss, never to a wrong verdict;
//   - entries never store kernel addresses. Map references are stored as
//     FDs and rebound through Config.MapByFD on every hit, and the fixed-up
//     program is re-derived from the original program on every hit
//     (fixupProgram, shared with the scratch path), because map kernel
//     addresses are not stable across kernel recycles;
//   - a hit that cannot be rebound (stale FD, missing resolver) falls back
//     to scratch verification instead of erroring;
//   - watchdog timeouts are never cached: a TimeoutError is a harness
//     resource verdict, not a program property.
type Cache interface {
	// Lookup returns the memoized verdict for the program with the given
	// fingerprint, or nil on a miss. Implementations must reject an entry
	// whose stored canonical bytes are not exactly p's canonical form
	// (MatchCanonical) — the caller passes the live program instead of
	// built canonical bytes so the hit path stays allocation-free.
	Lookup(fp uint64, p *isa.Program) *CachedVerdict
	// Insert memoizes a verdict. Implementations must treat the entry and
	// everything it references as immutable from this point on.
	Insert(fp uint64, v *CachedVerdict)
	// LookupPrefix returns the memoized boundary snapshot for the trace
	// prefix with the given fingerprint and canonical bytes, or nil.
	LookupPrefix(fp uint64, canon []byte) *PrefixSnapshot
	// InsertPrefix memoizes a boundary snapshot (immutable once inserted).
	InsertPrefix(fp uint64, s *PrefixSnapshot)
	// NotePrefix records that a trace prefix with the given fingerprint
	// was encountered and reports whether it had been encountered before.
	// Snapshot capture is gated on recurrence (the "second sight" filter):
	// most prefixes are seen exactly once, and capturing those would retain
	// a deep abstract-state clone per one-shot program — pure GC pressure
	// with zero future hits.
	NotePrefix(fp uint64) bool
}

// cacheable reports whether this verification may consult the cache. The
// cache path requires the default introspection level: log rendering and
// the oracle's StateTable are per-run artifacts a replay cannot reproduce
// (RecordStates runs bypass the cache entirely so indicator-3 soundness
// checks never see a stale claim table), and entries always carry a
// replayable coverage profile, so coverage must be on.
func cacheable(cfg *Config) bool {
	return cfg.Cache != nil && cfg.LogLevel == 0 && !cfg.RecordStates && cfg.Cov != nil
}

// CachedVerdict is one memoized whole-program verification outcome. All
// fields are exported so checkpointed campaigns can persist entries with
// encoding/gob.
type CachedVerdict struct {
	// Prog is the canonical byte form of the verified program; Lookup
	// compares it exactly to make fingerprint collisions harmless.
	Prog []byte

	// Rejected splits the two outcomes below.
	Rejected bool
	// Insn / Errno / Msg reproduce the *Error of a rejection. Msg is
	// pre-rendered: the lazy format/args of the original error are private
	// and a replayed error must compare equal through Error.Message.
	Insn  int
	Errno int
	Msg   string

	// Acceptance payload (Rejected == false). The fixed-up program itself
	// is NOT stored — it embeds map kernel addresses that go stale when
	// the campaign recycles its kernel — and is instead re-derived from
	// the original program on every hit.
	InsnProcessed int
	PeakStates    int
	TotalStates   int
	RangeChecks   []RangeCheck
	ProbeMem      map[int]bool
	// UsedMapFDs lists Result.UsedMaps by FD in first-use order.
	UsedMapFDs []int32
	R0Bounds   ReturnBounds

	// Cov is the coverage profile in its persisted (site, count) form. It
	// is set only on the copies Persisted makes for a checkpoint; Restored
	// moves it back into cov.
	Cov []coverage.SiteCount

	// cov is the exact coverage profile the scratch verification
	// recorded, replayed into Config.Cov on every hit.
	cov []coverage.IDCount
}

// Persisted returns a copy of v for a checkpoint, its coverage profile
// converted to the persisted (site, count) form sorted by site.
func (v *CachedVerdict) Persisted() *CachedVerdict {
	p := *v
	p.Cov, p.cov = coverage.Expand(v.cov), nil
	return &p
}

// Restored returns a copy of a checkpointed entry with its coverage
// profile converted back to the in-memory form. It fails when the
// profile's sites do not fit in the coverage site registry.
func (v *CachedVerdict) Restored() (*CachedVerdict, error) {
	r := *v
	if r.Cov != nil {
		cov, err := coverage.Compact(r.Cov)
		if err != nil {
			return nil, err
		}
		r.Cov, r.cov = nil, cov
	}
	return &r, nil
}

// EstimateBytes approximates the entry's memory footprint for the cache
// byte counters (Stats.CacheInsertedBytes).
func (v *CachedVerdict) EstimateBytes() int {
	n := 96 + len(v.Prog) + len(v.Msg)
	n += len(v.RangeChecks) * 40
	n += len(v.ProbeMem) * 16
	n += len(v.UsedMapFDs) * 4
	n += len(v.cov) * 8
	return n
}

// newCachedVerdict builds the cache entry for one scratch verification, or
// nil when the outcome must not be cached (timeouts, internal errors).
func newCachedVerdict(canon []byte, res *Result, err error, cov []coverage.IDCount) *CachedVerdict {
	if err != nil {
		// Fast path: verify returns its *Error values unwrapped, and the
		// errors.As target cell heap-escapes on every call.
		ve, ok := err.(*Error)
		if !ok && !errors.As(err, &ve) {
			return nil
		}
		return &CachedVerdict{
			Prog:     canon,
			Rejected: true,
			Insn:     ve.Insn,
			Errno:    ve.Errno,
			Msg:      ve.Message(),
			cov:      cov,
		}
	}
	var fds []int32
	if len(res.UsedMaps) > 0 {
		fds = make([]int32, len(res.UsedMaps))
		for i, m := range res.UsedMaps {
			fds[i] = m.FD
		}
	}
	return &CachedVerdict{
		Prog:          canon,
		InsnProcessed: res.InsnProcessed,
		PeakStates:    res.PeakStates,
		TotalStates:   res.TotalStates,
		RangeChecks:   res.RangeChecks,
		ProbeMem:      res.ProbeMem,
		UsedMapFDs:    fds,
		R0Bounds:      res.R0Bounds,
		cov:           cov,
	}
}

// materialize replays the memoized outcome under cfg. ok == false demotes
// the hit to a miss (the caller verifies from scratch): a map FD no longer
// resolves, or the re-fixup failed. Every rebind is validated before any
// observable side effect (the coverage replay), so a failed materialization
// leaves cfg.Cov untouched.
func (v *CachedVerdict) materialize(prog *isa.Program, cfg *Config) (*Result, error, bool) {
	var used []*maps.Map
	if n := len(v.UsedMapFDs); n > 0 {
		used = make([]*maps.Map, n)
		for i, fd := range v.UsedMapFDs {
			m := cfg.mapByFD(fd)
			if m == nil {
				return nil, nil, false
			}
			used[i] = m
		}
	}
	var fixed *isa.Program
	if !v.Rejected {
		// The fixed-up program is re-derived through the scratch path's
		// own fixup; a failure leaves the authoritative rejection to the
		// scratch verification the caller falls back to.
		if fixed, _, _ = fixupProgram(prog, cfg, v.ProbeMem); fixed == nil {
			return nil, nil, false
		}
	}
	cfg.Cov.AddSites(v.cov)
	if v.Rejected {
		return nil, &Error{Insn: v.Insn, Msg: v.Msg, Errno: v.Errno}, true
	}
	return &Result{
		Prog:          fixed,
		InsnProcessed: v.InsnProcessed,
		PeakStates:    v.PeakStates,
		TotalStates:   v.TotalStates,
		RangeChecks:   v.RangeChecks,
		ProbeMem:      v.ProbeMem,
		UsedMaps:      used,
		R0Bounds:      v.R0Bounds,
	}, nil, true
}

// PrefixSnapshot is the abstract state at the end of a program's trace
// prefix: the forced single-path execution from instruction 0 through
// straight-line code, unconditional jumps, bpf-to-bpf calls, and subframe
// returns, stopping at the first point where control flow can fork (a
// conditional jump), end (main-frame exit), or re-enter an already-traced
// instruction. Every exploration of the program executes exactly this
// trace first, so the whole env side state at the boundary is well
// defined and a resumed verification is bit-identical to a scratch one.
//
// Prefix snapshots hold *maps.Map pointers (inside State registers) and are
// therefore never serialized into checkpoints; they are rebuilt cheaply
// after a resume. Map references are rebound by FD on every application.
type PrefixSnapshot struct {
	// Canon is the canonical byte form of the trace (attrs + executed
	// insns with pcs + boundary pc); LookupPrefix compares it exactly.
	Canon []byte
	// Len is the trace length in executed instructions.
	Len int

	// State is the abstract machine state at the boundary (State.Insn is
	// the boundary pc). It is a deep private copy; apply clones it again
	// per use.
	State *State

	// Visited lists the prune snapshots the trace run recorded (one per
	// unconditional-jump target), in ascending instruction order, each
	// with the snapshot id the run issued for it. SnapCounter is the
	// env's id counter at the boundary. Restoring these exactly keeps the
	// resumed exploration's prune and loop-detection decisions (which
	// compare ids against State.Ancestry) bit-identical to scratch.
	Visited     []PrefixVisited
	SnapCounter uint64

	// Env side state at the boundary, in compact form: only the entries
	// the prefix run actually set, in instruction order.
	InsnProcessed int
	IDCounter     uint32
	RefCounter    uint32
	// InsnRegType pairs an instruction index with its recorded access
	// type in env encoding (RegType + 1).
	InsnRegType []PrefixInsnType
	// RangeChecks carries the live alu_limit beliefs (InsnIdx embedded).
	RangeChecks []RangeCheck
	// AluScalarPath / ProbeMem list the marked instruction indices.
	AluScalarPath []int32
	ProbeMem      []int32
	// UsedMapFDs is env.usedMaps by FD in first-use order.
	UsedMapFDs []int32

	// Cov is the coverage the prefix run recorded, replayed into the
	// resumed verification's local recorder.
	Cov []coverage.IDCount
}

// PrefixInsnType is one (instruction, recorded access type) pair in a
// prefix snapshot. T uses the env encoding (RegType + 1).
type PrefixInsnType struct {
	Insn int32
	T    int32
}

// PrefixVisited is one prune snapshot a trace run recorded: the pc it is
// keyed under, the snapshot id issued for it (referenced by descendant
// states' Ancestry lists for loop detection), and a deep private copy of
// the recorded state.
type PrefixVisited struct {
	Insn  int32
	ID    uint64
	State *State
}

// EstimateBytes approximates the snapshot's footprint for cache counters.
func (s *PrefixSnapshot) EstimateBytes() int {
	n := 160 + len(s.Canon)
	n += len(s.State.Frames) * 2200 // FuncState: 11 regs + 64 stack slots
	for _, v := range s.Visited {
		n += 24 + len(v.State.Frames)*2200
	}
	n += len(s.InsnRegType) * 8
	n += len(s.RangeChecks) * 40
	n += len(s.AluScalarPath) * 4
	n += len(s.ProbeMem) * 4
	n += len(s.UsedMapFDs) * 4
	n += len(s.Cov) * 8
	return n
}

// minPrefixInsns is the shortest prefix worth snapshotting: below this the
// bookkeeping costs more than re-simulating the instructions.
const minPrefixInsns = 4

// maxTracePrefixInsns bounds the trace walk: beyond this the canonical
// byte form and the snapshot clone stop paying for themselves, and a
// bound keeps the per-trace canon size O(1) with respect to the
// instruction budget.
const maxTracePrefixInsns = 512

// tracePrefix statically computes the program's forced execution trace:
// the sequence of pcs every exploration executes, in order, before the
// first point where control flow can fork. It mirrors checkJmp's op-based
// dispatch exactly (which is class-agnostic for EXIT/CALL/JA):
//
//   - non-jump classes and helper/kfunc/invalid calls execute and
//     continue at pc+1 (a rejecting call rejects the trace run the same
//     way it rejects a scratch run);
//   - bpf-to-bpf calls push the callsite and continue at the callee,
//     unless the target is invalid or already traced, or the frame stack
//     is at the kernel limit — executing any of those would fork into a
//     rejection the boundary state reproduces after resume;
//   - EXIT pops to callsite+1 in a subframe and is a boundary in the
//     main frame;
//   - JA continues at its target unless the target is invalid or already
//     traced;
//   - conditional jumps are always a boundary.
//
// Stopping before any already-traced pc gives the invariant that every pc
// executes at most once, so the trace run's pruneOrRecord calls (at JA
// targets) never hit an existing snapshot and never detect a loop — each
// records exactly one fresh snapshot, which capture/apply replay.
//
// Returns the executed pcs and the boundary pc (where the resumed
// worklist exploration continues; may be len(insns) for a fall-through
// past the last instruction, which the resumed run rejects identically
// to a scratch one).
func (e *env) tracePrefix() ([]int32, int) {
	n := len(e.prog.Insns)
	e.traceSeen = growBools(e.traceSeen, n)
	pcs := e.tracePCs[:0]
	defer func() { e.tracePCs = pcs[:0] }()
	var csArr [maxCallFrames]int
	callSites := csArr[:0]
	pc := 0
	for pc >= 0 && pc < n && !e.traceSeen[pc] && len(pcs) < maxTracePrefixInsns {
		ins := e.prog.Insns[pc]
		next := pc + 1
		if cls := ins.Class(); cls == isa.ClassJMP || cls == isa.ClassJMP32 {
			switch isa.Op(ins.Opcode) {
			case isa.EXIT:
				if len(callSites) == 0 {
					return pcs, pc // main-frame exit ends the path
				}
				next = callSites[len(callSites)-1] + 1
				callSites = callSites[:len(callSites)-1]
			case isa.CALL:
				if ins.IsPseudoCall() {
					tgt := e.jumpTarget(pc, ins.Imm)
					if tgt < 0 || e.traceSeen[tgt] || len(callSites)+1 >= maxCallFrames {
						return pcs, pc
					}
					callSites = append(callSites, pc)
					next = tgt
				}
				// Helper/kfunc/invalid calls are single-path: checkCall
				// resumes at pc+1 (or rejects, ending verification).
			case isa.JA:
				tgt := e.jumpTarget(pc, int32(ins.Off))
				if tgt < 0 || e.traceSeen[tgt] {
					return pcs, pc
				}
				next = tgt
			default:
				return pcs, pc // conditional jump: the path forks here
			}
		}
		e.traceSeen[pc] = true
		pcs = append(pcs, int32(pc))
		pc = next
	}
	return pcs, pc
}

// runTrace simulates the forced trace pcs on st through the same stepper
// runPath loops over, so a scratch run and the run that captured a
// snapshot account identically. JA jumps, bpf-to-bpf calls, and subframe
// exits go through checkJmp like anywhere else — including the
// pruneOrRecord snapshot at each JA target — which is what makes the
// captured env state complete.
func (e *env) runTrace(st *State, pcs []int32) error {
	for k, pc := range pcs {
		i := st.Insn
		if i != int(pc) {
			// Cannot happen: the builder mirrors the interpreter's control
			// flow. Reject loudly rather than capture a wrong snapshot.
			return e.reject(i, EINVAL, "internal: trace diverged at step %d", k)
		}
		// Conditional jumps are never in a trace, JA targets are first
		// visits (never pruned), so done/sibling are impossible.
		done, sibling, err := e.step(st)
		if err != nil {
			return err
		}
		if done || sibling != nil {
			return e.reject(i, EINVAL, "internal: branch inside trace prefix")
		}
	}
	return nil
}

// capturePrefix snapshots the boundary state after a scratch runTrace of
// nExec instructions. Everything captured is deep-copied so later
// exploration (and state/env pooling) cannot mutate the published
// snapshot. The env scratch tables are walked over the whole program — a
// trace jumps arbitrarily, so live entries are not confined to a prefix
// range — and compacted to just the live entries, in instruction order.
// The prune snapshots the trace recorded at JA targets are captured with
// their issued ids, so a resumed exploration reconstructs the exact
// visited-table and Ancestry relationships of a scratch run.
func (e *env) capturePrefix(st *State, canon []byte, nExec int) *PrefixSnapshot {
	var fds []int32
	if len(e.usedMaps) > 0 {
		fds = make([]int32, len(e.usedMaps))
		for i, m := range e.usedMaps {
			fds[i] = m.FD
		}
	}
	snap := &PrefixSnapshot{
		Canon:         canon,
		Len:           nExec,
		State:         st.Clone(),
		SnapCounter:   e.snapCounter,
		InsnProcessed: e.insnProcessed,
		IDCounter:     e.idCounter,
		RefCounter:    e.refCounter,
		UsedMapFDs:    fds,
		Cov:           e.lcov.Export(),
	}
	for i := range e.prog.Insns {
		if t := e.insnRegType[i]; t != 0 {
			snap.InsnRegType = append(snap.InsnRegType, PrefixInsnType{Insn: int32(i), T: t})
		}
		if e.rcSet[i] {
			snap.RangeChecks = append(snap.RangeChecks, e.rangeChecks[i])
		}
		if e.aluScalarPath[i] {
			snap.AluScalarPath = append(snap.AluScalarPath, int32(i))
		}
		if e.probeMem[i] {
			snap.ProbeMem = append(snap.ProbeMem, int32(i))
		}
		for _, sn := range e.visited[i] {
			snap.Visited = append(snap.Visited, PrefixVisited{
				Insn: int32(i), ID: sn.id, State: sn.state.Clone(),
			})
		}
	}
	return snap
}

// applyPrefixSnapshot restores snap into e and returns the boundary state
// to seed the worklist with. ok == false means a map FD could not be
// rebound; the caller re-simulates the trace from scratch. All rebinds —
// the map set, the boundary state, and every visited prune snapshot —
// are resolved before e is mutated, so a failed application leaves the
// env untouched.
func (e *env) applyPrefixSnapshot(snap *PrefixSnapshot) (*State, bool) {
	resolved := make([]*maps.Map, len(snap.UsedMapFDs))
	for i, fd := range snap.UsedMapFDs {
		m := e.cfg.mapByFD(fd)
		if m == nil {
			return nil, false
		}
		resolved[i] = m
	}
	// Deep-clone through the env pools; the snapshot's own states are
	// shared across verifications and must never be mutated.
	st := e.cloneState(snap.State)
	if !e.rebindState(st) {
		e.releaseState(st)
		return nil, false
	}
	var vstates []*State
	if len(snap.Visited) > 0 {
		vstates = make([]*State, len(snap.Visited))
		for i := range snap.Visited {
			vs := e.cloneState(snap.Visited[i].State)
			if !e.rebindState(vs) {
				e.releaseState(vs)
				for _, p := range vstates[:i] {
					e.releaseState(p)
				}
				e.releaseState(st)
				return nil, false
			}
			vstates[i] = vs
		}
	}
	// The clones inherited the snapshot's fingerprint caches, but the
	// rebind above swapped map identities (KernAddr feeds the
	// contributions), so the cached terms are stale for this kernel.
	st.fpInvalidate()
	// Point of no return: e is only mutated below.
	e.insnProcessed = snap.InsnProcessed
	e.idCounter = snap.IDCounter
	e.refCounter = snap.RefCounter
	e.snapCounter = snap.SnapCounter
	for i := range snap.Visited {
		v := &snap.Visited[i]
		vs := vstates[i]
		// Recompute the prune fingerprint on the rebound clone: it must
		// equal what a scratch run computes against the current kernel's
		// map addresses, not what the capturing run computed.
		vs.fpInvalidate()
		e.visited[v.Insn] = append(e.visited[v.Insn], snapshot{
			id: v.ID, fp: stateFingerprint(vs), state: vs,
		})
	}
	for _, it := range snap.InsnRegType {
		e.insnRegType[it.Insn] = it.T
	}
	for _, rc := range snap.RangeChecks {
		e.rangeChecks[rc.InsnIdx] = rc
		e.rcSet[rc.InsnIdx] = true
	}
	for _, i := range snap.AluScalarPath {
		e.aluScalarPath[i] = true
	}
	for _, i := range snap.ProbeMem {
		e.probeMem[i] = true
	}
	for _, m := range resolved {
		e.noteMap(m)
	}
	e.lcov.AddSites(snap.Cov)
	return st, true
}

// rebindState rebinds every map reference in st (registers and spilled
// stack slots, all frames) to the current kernel's maps.
func (e *env) rebindState(st *State) bool {
	for _, f := range st.Frames {
		for r := range f.Regs {
			if !e.rebindReg(&f.Regs[r]) {
				return false
			}
		}
		for s := range f.Stack {
			if f.Stack[s].Kind == SlotSpill {
				if !e.rebindReg(&f.Stack[s].Spill) {
					return false
				}
			}
		}
	}
	return true
}

// rebindReg swaps a register's map reference for the current kernel's map
// with the same FD. Map pointer identity matters downstream (pruning and
// the used-maps set compare maps by pointer), so a snapshot's stale
// pointers must never leak into a resumed verification.
func (e *env) rebindReg(reg *RegState) bool {
	if reg.Map == nil {
		return true
	}
	m := e.cfg.mapByFD(reg.Map.FD)
	if m == nil {
		return false
	}
	reg.Map = m
	return true
}

// exportCov captures the local coverage recorder into *dst. It is
// registered as a deferred call after the FlushTo defer, so it runs first
// (LIFO) — while the recorder still holds the run's profile.
func (e *env) exportCov(dst *[]coverage.IDCount) {
	*dst = e.lcov.Export()
}

// prefixPrepass runs the verdict-cache incremental path: compute the
// forced execution trace, resume from a memoized boundary snapshot when
// one matches, otherwise simulate the trace once and publish the
// snapshot. It returns the state to seed the worklist with.
//
// Capture is gated on recurrence: the first sighting of a trace
// fingerprint only notes it (a streamed hash, no allocation) and lets the
// normal worklist exploration run the trace — runTrace and runPath loop
// over the same stepper, so the two routes are bit-identical. Only
// a trace seen a second time pays for canonical bytes, the boundary
// simulation, and the deep state clones the snapshot retains. One-shot
// traces — the overwhelming majority under a mutating generator — thus
// cost the cache nothing.
func (e *env) prefixPrepass(st *State) (*State, error) {
	pcs, end := e.tracePrefix()
	if len(pcs) < minPrefixInsns {
		return st, nil
	}
	fp := uint64(walkTrace(e.prog, pcs, end, hashSink(fpOffset64)))
	if !e.cfg.Cache.NotePrefix(fp) {
		return st, nil
	}
	canon := walkTrace(e.prog, pcs, end, make(appendSink, 0, 14+len(e.prog.AttachTo)+22*len(pcs)))
	if snap := e.cfg.Cache.LookupPrefix(fp, canon); snap != nil {
		if rst, ok := e.applyPrefixSnapshot(snap); ok {
			e.releaseState(st)
			return rst, nil
		}
	}
	if err := e.runTrace(st, pcs); err != nil {
		e.releaseState(st)
		return nil, err
	}
	e.cfg.Cache.InsertPrefix(fp, e.capturePrefix(st, canon, len(pcs)))
	return st, nil
}
