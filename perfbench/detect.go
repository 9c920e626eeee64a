package main

import (
	"fmt"
	"sync"
	"time"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/experiments"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/runner"
	"conair/internal/sanitizer"
	"conair/internal/sched"
)

// detect: one op is one PCT sanitizer search to a verdict through
// experiments.SanitizeSearch. For a flagged program the op goes on: it
// records the flagging schedule, encodes, decodes and verifies the
// recording, and minimizes it when the run failed. Only this workload runs
// the sanitizer, the PCT scheduler, first-hit cancellation and the replay
// layer.
type detectWorkload struct {
	inputs []detectInput
	hook   *searchHook
	// flagged lists pass 0's flagging (module, seed) pairs for the traced
	// run's sanitizer slowdown probe.
	flagged []flagged
}

type flagged struct {
	mod      *mir.Module
	seed     int64
	maxSteps int64
}

type detectInput struct {
	name     string
	mod      *mir.Module
	maxSteps int64
	// alt is searched when mod stays silent: the survival-hardened build
	// of an order-violation template, whose recovery lets both racing
	// accesses execute (as in experiments.CrossCheckTemplate).
	alt *mir.Module
	// check compares the search's verdict with the input's label.
	check func(seed int64, rs []sanitizer.Report) error
}

// searchBudget is the PCT seed budget of every search, the budget of the
// repository's template and corpus cross-checks.
const searchBudget = 25

// mirgenMaxSteps is the step cutoff of generated programs, as in
// experiments.CrossCheckTemplate.
const mirgenMaxSteps = 20_000_000

// orderSeeds are the order-violation templates' generator seeds (see
// setupDetect).
var orderSeeds = []int64{1, 2}

// paperVerdicts are the paper bugs' Table 3 sanitizer verdicts.
var paperVerdicts = map[string]string{
	"FFT":          "race(End)",
	"HawkNL":       "deadlock(nlock,slock)",
	"HTTrack":      "race(gopt)[+1]",
	"MozillaXP":    "race(mThd)[+1]",
	"MozillaJS":    "deadlock(gc_lock,rt_lock)",
	"MySQL1":       "race(log_state)[+1]",
	"MySQL2":       "race(proc_info)[+2]",
	"SQLite":       "deadlock(db_lock,journal_lock)",
	"Transmission": "race(gband)",
	"ZSNES":        "race(video_init)",
}

// corpusGlobals are the corpus models' documented racy globals.
var corpusGlobals = map[string]string{
	"LGResults":    "ctx_cancel",
	"LGFrontier":   "frontier",
	"LGCompletion": "wf_result",
}

func wantVerdict(want string) func(int64, []sanitizer.Report) error {
	return func(seed int64, rs []sanitizer.Report) error {
		if got := sanitizer.Verdict(rs); got != want {
			return fmt.Errorf("verdict %s (seed %d), want %s", got, seed, want)
		}
		return nil
	}
}

func wantSilent(seed int64, rs []sanitizer.Report) error {
	if seed >= 0 {
		return fmt.Errorf("race-free twin flagged at seed %d: %s", seed, sanitizer.Verdict(rs))
	}
	return nil
}

func wantRaceOn(global string) func(int64, []sanitizer.Report) error {
	return func(seed int64, rs []sanitizer.Report) error {
		if seed < 0 {
			return fmt.Errorf("not flagged within %d seeds", searchBudget)
		}
		for _, r := range rs {
			if r.Kind == sanitizer.KindDeadlock || r.Global != global {
				return fmt.Errorf("seed %d: report %s, want a race on %s only", seed, r, global)
			}
		}
		return nil
	}
}

// wantLabel matches every report against a template's ground truth.
func wantLabel(info *mirgen.BugInfo) func(int64, []sanitizer.Report) error {
	return func(seed int64, rs []sanitizer.Report) error {
		if seed < 0 {
			return fmt.Errorf("%v template not flagged within %d seeds", info.Kind, searchBudget)
		}
		for _, r := range rs {
			if info.Kind == mirgen.BugLockInversion {
				got := map[string]bool{r.LockA: true, r.LockB: true}
				if r.Kind != sanitizer.KindDeadlock || !got[info.LockA] || !got[info.LockB] {
					return fmt.Errorf("seed %d: report %s, want deadlock(%s,%s)", seed, r, info.LockA, info.LockB)
				}
				continue
			}
			if r.Kind == sanitizer.KindDeadlock || r.Global != info.Global {
				return fmt.Errorf("seed %d: report %s, want a race on %s", seed, r, info.Global)
			}
		}
		return nil
	}
}

func setupDetect(o *options) (workload, error) {
	w := &detectWorkload{hook: &searchHook{}}
	experiments.SetRunHook(w.hook.observe)
	paper, corpus, perKind := bugs.All(), bugs.Corpus(), 2
	if o.tiny {
		paper, corpus, perKind = []*bugs.Bug{bugs.ByName("HawkNL")}, corpus[:1], 1
	}
	survival := func(m *mir.Module) (*mir.Module, error) {
		h, err := core.Harden(m, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		return h.Module, nil
	}
	// Hang bugs are searched raw: lock-order edges are collected whether
	// or not the schedule deadlocks. Race bugs are searched hardened: the
	// failure kills the raw run between the racing accesses, and only
	// recovery lets both execute (experiments.SanitizerVerdict).
	searchMod := func(b *bugs.Bug) (*mir.Module, error) {
		forced := b.Program(bugs.Config{ForceBug: true, Light: true})
		if b.Symptom == mir.FailHang {
			return forced, nil
		}
		return survival(forced)
	}
	for _, b := range paper {
		m, err := searchMod(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		w.inputs = append(w.inputs, detectInput{name: b.Name, mod: m, maxSteps: maxSteps, check: wantVerdict(paperVerdicts[b.Name])})
	}
	for _, b := range corpus {
		m, err := searchMod(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		w.inputs = append(w.inputs,
			detectInput{name: b.Name + "/buggy", mod: m, maxSteps: maxSteps, check: wantRaceOn(corpusGlobals[b.Name])},
			detectInput{name: b.Name + "/fixed", mod: b.Program(bugs.Config{}), maxSteps: maxSteps, check: wantSilent})
	}
	r := seedRand(o.seed, "detect")
	for kind := mirgen.BugOrder; kind <= mirgen.BugCASABA; kind++ {
		for k := 0; k < perKind; k++ {
			cfg := mirgen.Config{Seed: r.Int63(), Bug: kind}
			if kind == mirgen.BugOrder {
				// An order violation is only flagged by the hardened search,
				// whose cost (rollback loops under adversarial PCT schedules)
				// varies several-fold with the generator seed and would make
				// the batch's cost depend on -seed. The order templates use
				// fixed generator seeds from the repository's cross-check.
				cfg.Seed = orderSeeds[k%len(orderSeeds)]
			}
			m, info := mirgen.GenWithInfo(cfg)
			alt, err := survival(m)
			if err != nil {
				return nil, fmt.Errorf("mirgen %v: %w", kind, err)
			}
			twin := cfg
			twin.Bug = mirgen.BugNone
			name := fmt.Sprintf("mirgen/%v/%d", kind, cfg.Seed)
			w.inputs = append(w.inputs,
				detectInput{name: name, mod: m, alt: alt, maxSteps: mirgenMaxSteps, check: wantLabel(info)},
				detectInput{name: name + "/clean-twin", mod: mirgen.Gen(twin), maxSteps: mirgenMaxSteps, check: wantSilent})
		}
	}
	var mods []*mir.Module
	for _, in := range w.inputs {
		mods = append(mods, in.mod)
		if in.alt != nil {
			mods = append(mods, in.alt)
		}
	}
	warmCompile(mods)
	warmArtifacts(mods)
	return w, nil
}

func (c *runCounts) add(o runCounts) {
	c.steps += o.steps
	c.checkpoints += o.checkpoints
	c.rollbacks += o.rollbacks
	c.compUnlocks += o.compUnlocks
}

// searchHook collects the interpreter counts of every seed a search runs,
// so the speculative seeds above the winner (cancelled or discarded when
// several workers search) are kept out of the exact counters.
type searchHook struct {
	mu   sync.Mutex
	runs []seedRun
}

type seedRun struct {
	seed int64
	runCounts
}

func (h *searchHook) observe(ri runner.RunInfo) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := ri.Result.Stats
	h.runs = append(h.runs, seedRun{ri.Seed, runCounts{s.Steps, s.Checkpoints, s.Rollbacks, s.CompUnlocks}})
}

func (h *searchHook) take() []seedRun {
	h.mu.Lock()
	defer h.mu.Unlock()
	runs := h.runs
	h.runs = nil
	return runs
}

// detectCounts are a pass's counts.
type detectCounts struct {
	useful, attempted                         int64
	flagged, minimized                        int64
	probes, switchesIn, switchesOut, cnrBytes int64
	picks                                     int64
	spec                                      runCounts
}

// search runs one SanitizeSearch inside a sanitizer.search span and
// splits the seeds it ran into the deterministic prefix (up to and
// including the winner, or the whole budget) and speculative work.
func (w *detectWorkload) search(p *passCtx, op, sp int64, mod *mir.Module, steps int64, c *detectCounts) (int64, []sanitizer.Report) {
	s := p.tr.start("sanitizer.search", sp, op)
	seed, rs := experiments.SanitizeSearch(mod, searchBudget, steps)
	p.tr.end(s)
	limit := int64(searchBudget - 1)
	if seed >= 0 {
		limit = seed
	}
	c.useful += limit + 1
	for _, r := range w.hook.take() {
		c.attempted++
		if r.seed > limit {
			c.spec.add(r.runCounts)
		}
	}
	return seed, rs
}

func (w *detectWorkload) pass(p *passCtx) {
	p.ops = make([]opStat, len(w.inputs))
	// Ops run one after another: the search itself fans its seeds out
	// over the workers.
	var c detectCounts
	for i, in := range w.inputs {
		p.runOp(i, in.name, 0, func(op, sp int64) error {
			return w.op(p, op, sp, in, &c)
		})
	}
	p.spec = c.spec
	p.exact["sanitizer.seeds_attempted"] = c.useful
	p.exact["sanitizer.flagged"] = c.flagged
	p.exact["replay.minimized"] = c.minimized
	p.exact["replay.probes"] = c.probes
	p.exact["replay.switches_in"] = c.switchesIn
	p.exact["replay.switches_out"] = c.switchesOut
	p.exact["replay.cnr_bytes"] = c.cnrBytes
	p.layer["sanitizer.useful_frac"] = float64(c.useful) / float64(max(c.attempted, 1))
	p.layer["runner.jobs"] = float64(c.attempted)
	if p.tr != nil {
		p.layer["sched.picks"] = float64(c.picks)
	}
}

// op searches one input and, when it is flagged, takes the flagging
// schedule through the replay layer.
func (w *detectWorkload) op(p *passCtx, op, sp int64, in detectInput, c *detectCounts) error {
	mod := in.mod
	seed, rs := w.search(p, op, sp, mod, in.maxSteps, c)
	if seed < 0 && in.alt != nil {
		mod = in.alt
		seed, rs = w.search(p, op, sp, mod, in.maxSteps, c)
	}
	if err := in.check(seed, rs); err != nil {
		return err
	}
	if seed < 0 {
		return nil
	}
	c.flagged++
	if p.index == 0 {
		w.flagged = append(w.flagged, flagged{mod, seed, in.maxSteps})
	}
	return w.replay(p, op, sp, in.name, mod, seed, in.maxSteps, sanitizer.Verdict(rs), c)
}

// pctCfg is SanitizeSearch's schedule for one seed (PCT depth 3 over 64
// priority-change points), so the recording reproduces the flagging run.
func pctCfg(seed, steps int64) interp.Config {
	return interp.Config{Sched: sched.NewPCT(seed, 3, 64), MaxSteps: steps, CollectOutput: true}
}

func (w *detectWorkload) replay(p *passCtx, op, sp int64, name string, mod *mir.Module, seed, steps int64, verdict string, c *detectCounts) error {
	tr := p.tr
	cfg := pctCfg(seed, steps)
	san := sanitizer.New(mod)
	cfg.Sanitizer = san
	if tr != nil {
		cfg.Sink = obs.NewTracer(64)
	}
	s := tr.start("replay.record", sp, op)
	res, rec := replay.Record(mod, cfg, replay.Meta{Seed: seed, Label: name})
	tr.end(s)
	if cfg.Sink != nil {
		c.picks += cfg.Sink.Count(obs.KindSchedPick)
	}
	if got := sanitizer.Verdict(san.Reports()); got != verdict {
		return fmt.Errorf("recorded seed %d gives verdict %s, the search gave %s", seed, got, verdict)
	}
	s = tr.start("replay.encode", sp, op)
	data := replay.Encode(rec)
	tr.end(s)
	c.cnrBytes += int64(len(data))
	s = tr.start("replay.decode", sp, op)
	back, err := replay.Decode(data)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("decode recording: %w", err)
	}
	s = tr.start("replay.verify", sp, op)
	err = replay.Verify(mod, back)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("verify recording: %w", err)
	}
	c.switchesIn += int64(rec.Switches())
	if res.Completed {
		c.switchesOut += int64(rec.Switches())
		return nil
	}
	s = tr.start("replay.minimize", sp, op)
	mz, err := replay.Minimize(mod, back, replay.MinimizeOptions{})
	tr.end(s)
	if err != nil {
		return fmt.Errorf("minimize: %w", err)
	}
	c.minimized++
	c.probes += int64(mz.Probes)
	c.switchesOut += int64(mz.SwitchesAfter)
	s = tr.start("replay.verify", sp, op)
	err = replay.Verify(mod, mz.Rec)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("verify minimized recording: %w", err)
	}
	if !mz.Rec.Fingerprint.SameFailure(rec.Fingerprint) {
		return fmt.Errorf("minimized recording fails as %s, the recorded run as %s",
			mz.Rec.Fingerprint.FailureKey(), rec.Fingerprint.FailureKey())
	}
	return nil
}

// slowdown reruns each of pass 0's flagging schedules with and without a
// sanitizer and returns the ratio of their wall times. It runs after the
// last pass, outside every pass's counters.
func (w *detectWorkload) slowdown() float64 {
	var with, without time.Duration
	for _, f := range w.flagged {
		for _, attach := range []bool{false, true} {
			cfg := pctCfg(f.seed, f.maxSteps)
			if attach {
				cfg.Sanitizer = sanitizer.New(f.mod)
			}
			t0 := time.Now()
			interp.RunModule(f.mod, cfg)
			if attach {
				with += time.Since(t0)
			} else {
				without += time.Since(t0)
			}
		}
	}
	if without == 0 {
		return 0
	}
	return with.Seconds() / without.Seconds()
}
