package main

import (
	"fmt"
	"sync/atomic"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/runner"
)

// recover: one op is one forced-failure light run of a fix-mode or
// survival-mode hardened paper bug, through an engine with the always-on
// flight recorder. Every run fires its bug and rolls back, so
// checkpoint/rollback, timed locks and backoff, per-run VM setup, engine
// dispatch and the flight recorder dominate, not the dispatch loop.
type recoverWorkload struct {
	eng  runner.Engine
	jobs []job
	// want is each job's failure-free reference: the observable of the
	// unforced light program on the same seed.
	want []string
	// segments and wrapped accumulate the flight recordings the engine
	// hands its run hook.
	segments, wrapped atomic.Int64
}

func setupRecover(o *options) (workload, error) {
	paper, nSeeds := bugs.All(), 10
	if o.tiny {
		paper, nSeeds = []*bugs.Bug{bugs.ByName("HawkNL"), bugs.ByName("SQLite")}, 2
	}
	w := &recoverWorkload{}
	w.eng = runner.Engine{
		Workers:     o.workers,
		FlightLimit: runner.DefaultFlightLimit,
		RunHook: func(ri runner.RunInfo) {
			switch {
			case ri.Recording != nil:
				w.segments.Add(int64(len(ri.Recording.Segments)))
			case ri.RecordingTruncated:
				w.wrapped.Add(1)
			}
		},
	}
	type prog struct {
		name  string
		mod   *mir.Module
		clean *mir.Module
	}
	var progs []prog
	var mods []*mir.Module
	for _, b := range paper {
		forced := b.Program(bugs.Config{ForceBug: true, Light: true})
		clean := b.Program(bugs.Config{Light: true})
		pos, err := b.FixSite(forced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		fix, err := core.Harden(forced, core.FixOptions(pos))
		if err != nil {
			return nil, fmt.Errorf("%s fix: %w", b.Name, err)
		}
		surv, err := core.Harden(forced, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s survival: %w", b.Name, err)
		}
		progs = append(progs, prog{b.Name + "/fix", fix.Module, clean}, prog{b.Name + "/survival", surv.Module, clean})
		mods = append(mods, fix.Module, surv.Module, clean)
	}
	warmCompile(mods)
	// The flight recorder prints and hashes each module once, memoized by
	// module pointer; warm that into setup as well.
	warmArtifacts(mods)
	refs := make(map[*mir.Module]map[int64]string)
	for _, seed := range schedSeeds(seedRand(o.seed, "recover"), nSeeds) {
		for _, pr := range progs {
			if refs[pr.clean] == nil {
				refs[pr.clean] = make(map[int64]string)
			}
			ref, ok := refs[pr.clean][seed]
			if !ok {
				ref = observable(interp.RunModule(pr.clean, runCfg(seed, nil)))
				refs[pr.clean][seed] = ref
			}
			w.jobs = append(w.jobs, job{pr.name, pr.mod, seed})
			w.want = append(w.want, ref)
		}
	}
	return w, nil
}

func (w *recoverWorkload) pass(p *passCtx) {
	n := len(w.jobs)
	p.ops = make([]opStat, n)
	results := make([]*interp.Result, n)
	picks := make([]int64, n)
	seg0, wrap0 := w.segments.Load(), w.wrapped.Load()
	p.batch(w.eng, n, func(i int, parent int64) {
		p.runOp(i, w.jobs[i].name, parent, func(op, sp int64) error {
			results[i] = p.runJob(w.eng, w.jobs[i], op, sp, &picks[i])
			return nil
		})
	})
	p.stopClock() // the checks below are the benchmark's, not the system's
	var episodes int64
	for i, r := range results {
		episodes += int64(len(r.Stats.Episodes))
		if got := observable(r); got != w.want[i] {
			p.failf(i, "seed %d: recovered run differs from the failure-free reference: got %s, want %s", w.jobs[i].seed, got, w.want[i])
		}
	}
	p.exact["recover.episodes"] = episodes
	p.exact["sched.flight_segments"] = w.segments.Load() - seg0
	p.exact["sched.flight_wrapped"] = w.wrapped.Load() - wrap0
	if p.tr != nil {
		p.layer["sched.picks"] = float64(sum(picks))
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
