package main

import (
	"fmt"
	"sort"
	"strings"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sched"
)

// maxSteps is the step cutoff of every run, the experiments' cutoff.
const maxSteps = 200_000_000

// job is one interpreter run of a run workload.
type job struct {
	name string
	mod  *mir.Module
	seed int64
}

// runCfg is a job's config: a fresh seeded random scheduler, outputs kept
// for the checks, and in traced runs an obs.Tracer sink whose exact
// per-kind counts give sched.picks.
func runCfg(seed int64, sink *obs.Tracer) interp.Config {
	return interp.Config{Sched: sched.NewRandom(seed), MaxSteps: maxSteps, CollectOutput: true, Sink: sink}
}

// runJob runs j through the engine's job path inside an interp.run span
// of op, adding the run's scheduler picks to picks in traced runs.
func (p *passCtx) runJob(eng runner.Engine, j job, op, sp int64, picks *int64) *interp.Result {
	var sink *obs.Tracer
	if p.tr != nil {
		sink = obs.NewTracer(64)
	}
	s := p.tr.start("interp.run", sp, op)
	res := eng.RunJob(j.mod, runCfg(j.seed, sink), replay.Meta{Label: j.name, Seed: j.seed})
	p.tr.end(s)
	if sink != nil {
		*picks += sink.Count(obs.KindSchedPick)
	}
	return res
}

// observable is the part of a run a user sees: completion, exit code and
// the output values in order.
func observable(r *interp.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "completed=%v exit=%d", r.Completed, r.ExitCode)
	if r.Failure != nil {
		fmt.Fprintf(&b, " failure=%q", r.Failure.Error())
	}
	for _, o := range r.Output {
		fmt.Fprintf(&b, " %s=%d", o.Text, o.Value)
	}
	return b.String()
}

// survive: one op is a pair of failure-free full-workload runs, raw then
// survival-hardened on the same seed, of a paper bug; all pairs run as one
// engine batch. Long runs where dispatch and the scheduler dominate and
// checkpoints execute but never roll back (the "featherweight" claim).
type surviveWorkload struct {
	eng   runner.Engine
	pairs []survivePair
}

type survivePair struct {
	name      string
	raw, hard *mir.Module
	seed      int64
}

func setupSurvive(o *options) (workload, error) {
	progs, nSeeds := bugs.All(), 3
	if o.tiny {
		progs, nSeeds = []*bugs.Bug{bugs.ByName("HawkNL"), bugs.ByName("FFT")}, 2
	}
	w := &surviveWorkload{eng: runner.Engine{Workers: o.workers}}
	seeds := schedSeeds(seedRand(o.seed, "survive"), nSeeds)
	var (
		mods  []*mir.Module
		built []survivePair
	)
	for _, b := range progs {
		raw := b.Program(bugs.Config{})
		h, err := core.Harden(raw, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		mods = append(mods, raw, h.Module)
		built = append(built, survivePair{name: b.Name, raw: raw, hard: h.Module})
	}
	warmCompile(mods)
	// Largest programs first, so the longest pairs (MySQL's, about a
	// quarter of a second each) start early and do not idle a worker at
	// the end of the batch.
	sort.SliceStable(built, func(i, j int) bool { return built[i].raw.NumInstrs() > built[j].raw.NumInstrs() })
	for _, pr := range built {
		for _, seed := range seeds {
			pr.seed = seed
			w.pairs = append(w.pairs, pr)
		}
	}
	return w, nil
}

func (w *surviveWorkload) pass(p *passCtx) {
	n := len(w.pairs)
	p.ops = make([]opStat, n)
	type pairResult struct {
		raw, hard *interp.Result
		picks     int64
	}
	results := make([]pairResult, n)
	p.batch(w.eng, n, func(i int, parent int64) {
		pr, r := w.pairs[i], &results[i]
		p.runOp(i, pr.name, parent, func(op, sp int64) error {
			r.raw = p.runJob(w.eng, job{pr.name + "/raw", pr.raw, pr.seed}, op, sp, &r.picks)
			r.hard = p.runJob(w.eng, job{pr.name + "/hardened", pr.hard, pr.seed}, op, sp, &r.picks)
			return nil
		})
	})
	p.stopClock() // the checks below are the benchmark's, not the system's
	var raw, hard, picks int64
	for i, r := range results {
		raw += r.raw.Stats.Steps
		hard += r.hard.Stats.Steps
		picks += r.picks
		if !r.raw.Completed {
			p.failf(i, "seed %d: failure-free run failed: %v", w.pairs[i].seed, r.raw.Failure)
		}
		// ConAir §3: hardening adds no behaviour to a failure-free run.
		if got, want := observable(r.hard), observable(r.raw); got != want {
			p.failf(i, "seed %d: hardened run differs from raw: got %s, want %s", w.pairs[i].seed, got, want)
		}
	}
	p.exact["survive.raw_instrs"] = raw
	p.exact["survive.hardened_instrs"] = hard
	// overhead_pct in basis points, so the exact counter stays integral.
	p.exact["overhead_bp"] = 10000 * (hard - raw) / raw
	if p.tr != nil {
		p.layer["sched.picks"] = float64(picks)
	}
}
