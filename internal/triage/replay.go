package triage

import (
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
)

// replayOnce re-runs a finding once in env, on pristine kernels, and
// reports what the oracle observed. A finding can manifest on several
// surfaces (direct execution, XDP offload, the XDP dispatcher, the
// map-dump syscalls); each surface runs on its own fresh kernel so a
// fault on one cannot masquerade as another, and the first surface whose
// anomaly matches the expected signature wins. When no surface matches,
// the first anomaly seen (if any) is returned so the evidence records
// what actually happened instead of a bare "no".
//
// The "triage.replay" fault point models a nondeterministic oracle: an
// injected error turns this attempt into a non-reproduction, which is
// how the quarantine tests manufacture flakiness.
func replayOnce(env Env, key core.BugKey, attempt int, prog *isa.Program) Report {
	if err := faultinject.FireErr("triage.replay"); err != nil {
		return Report{Attempt: attempt, Err: err.Error()}
	}
	var surfaces []func(Env, *isa.Program) (Report, bool)
	if prog != nil {
		surfaces = append(surfaces, replayDirect)
		if prog.Type == isa.ProgTypeXDP {
			surfaces = append(surfaces, replayOffload, replayDispatcher)
		}
	} else {
		// Findings with no triggering program (bug #9's map-dump KASAN
		// report) replay through the syscall surface alone.
		surfaces = append(surfaces, replaySyscalls)
	}
	var first *Report
	for _, surface := range surfaces {
		rep, ok := surface(env, prog)
		if !ok {
			continue
		}
		rep.Attempt = attempt
		if matches(key, rep) {
			return rep
		}
		if first == nil && rep.Reproduced {
			r := rep
			first = &r
		}
	}
	if first != nil {
		return *first
	}
	return Report{Attempt: attempt}
}

// reportFrom attributes an anomaly (knob-removal re-verification via
// Kernel.Triage) and packages it as replay evidence.
func reportFrom(k *kernel.Kernel, a *kernel.Anomaly, prog *isa.Program) Report {
	return Report{
		Reproduced: true,
		Bug:        k.Triage(a, prog),
		Kind:       a.Kind,
		Indicator:  a.Indicator,
		Err:        a.Err.Error(),
	}
}

// replayDirect loads and runs the program exactly as a campaign
// iteration and the reproducer do (core.Replay).
func replayDirect(env Env, prog *isa.Program) (Report, bool) {
	k, _, err := core.NewReplayKernel(env.Version, env.Bugs, env.Sanitize, env.Oracle)
	if err != nil {
		return Report{}, false
	}
	a, lerr := core.Replay(k, prog)
	switch {
	case a != nil:
		return reportFrom(k, a, prog), true
	case lerr != nil:
		return Report{Err: lerr.Error()}, true
	}
	return Report{}, true
}

// replayOffload runs an XDP program as device-offloaded (bug #11's
// missing execution-environment check).
func replayOffload(env Env, prog *isa.Program) (Report, bool) {
	k, _, err := core.NewReplayKernel(env.Version, env.Bugs, env.Sanitize, env.Oracle)
	if err != nil {
		return Report{}, false
	}
	lp, lerr := k.LoadProgram(prog)
	if lerr != nil {
		return Report{}, false // load outcomes belong to replayDirect
	}
	lp.Offloaded = true
	out := k.Run(lp)
	if a := kernel.Classify(out.Err); a != nil {
		return reportFrom(k, a, prog), true
	}
	return Report{}, true
}

// replayDispatcher drives the XDP dispatcher into its torn-update window
// (bug #7 fires when an execution races the third update).
func replayDispatcher(env Env, prog *isa.Program) (Report, bool) {
	k, _, err := core.NewReplayKernel(env.Version, env.Bugs, env.Sanitize, env.Oracle)
	if err != nil {
		return Report{}, false
	}
	lp, lerr := k.LoadProgram(prog)
	if lerr != nil {
		return Report{}, false
	}
	for i := 0; i < 3; i++ {
		k.UpdateDispatcher(lp)
	}
	out := k.RunDispatcher()
	if a := kernel.Classify(out.Err); a != nil {
		return reportFrom(k, a, prog), true
	}
	return Report{}, true
}

// replaySyscalls exercises the map-dump syscall surface: populate each
// hash map in the standard pool and walk it the way the dump syscalls
// do. Bug #9's bucket over-read fires on any non-empty hash map.
func replaySyscalls(env Env, _ *isa.Program) (Report, bool) {
	k, pool, err := core.NewReplayKernel(env.Version, env.Bugs, env.Sanitize, env.Oracle)
	if err != nil {
		return Report{}, false
	}
	for _, h := range pool {
		if h.Spec.Type != maps.Hash && h.Spec.Type != maps.LRUHash {
			continue
		}
		m := k.MapByFD(h.FD)
		if m == nil {
			continue
		}
		for i := 0; i < 3; i++ {
			mk := make([]byte, h.Spec.KeySize)
			mk[0] = byte(i + 1)
			_ = m.Update(mk, make([]byte, h.Spec.ValueSize), maps.UpdateAny)
		}
		if _, derr := k.DumpMap(h.FD); derr != nil {
			if a := kernel.Classify(derr); a != nil {
				return reportFrom(k, a, nil), true
			}
		}
	}
	return Report{}, true
}
