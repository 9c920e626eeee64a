package main

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"conair/internal/bugs"
	"conair/internal/core"
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/mirgen"
	"conair/internal/runner"
)

// harden: one op takes MIR text through mir.Parse, core.Harden (survival
// mode, plus fix mode for the paper bugs), interp.Compile and mir.Print of
// each hardened module. It runs the compile-time pipeline and executes
// nothing.
//
// Each op starts from text, so every module it hardens and compiles is
// new: interp.Compile's pointer-keyed memo can never hit, and the
// experiments package's hardening caches are never consulted. Setup only
// builds the texts.
type hardenWorkload struct {
	eng    runner.Engine
	inputs []hardenInput

	mu      sync.Mutex
	pending int64 // hardened instructions compiled since the last flush

	// verified holds a hash of each checked output of pass 0, per input.
	verified [][]uint64
	hashSeed maphash.Seed
}

type hardenInput struct {
	name string
	text string
	// bug, when set, also hardens the program in fix mode at its site.
	bug *bugs.Bug
}

// mirgenSizes follow the sizes of the small and mid-sized paper apps:
// about 160, 250, 570 and 1,240 instructions, against FFT's 135, SQLite's
// 223, MozillaJS's 545 and ZSNES's 1,226. The large apps (9K to 60K
// instructions) are in the batch themselves. The draw gives every
// template kind every size, and only the generator seeds come from -seed,
// so the batch's shape is the same on every seed.
var mirgenSizes = []struct{ funcs, stmts int }{{2, 8}, {2, 12}, {4, 20}, {6, 36}}

func setupHarden(o *options) (workload, error) {
	w := &hardenWorkload{eng: runner.Engine{Workers: o.workers}, hashSeed: maphash.MakeSeed()}
	paper, corpus := bugs.All(), bugs.Corpus()
	nGen := 32
	if o.tiny {
		paper, corpus, nGen = []*bugs.Bug{bugs.ByName("HawkNL")}, corpus[:1], 8
	}
	variants := []struct {
		tag string
		cfg bugs.Config
	}{{"clean-full", bugs.Config{}}, {"forced-light", bugs.Config{ForceBug: true, Light: true}}}
	for _, b := range paper {
		for _, v := range variants {
			w.inputs = append(w.inputs, hardenInput{name: b.Name + "/" + v.tag, text: mir.Print(b.Program(v.cfg)), bug: b})
		}
	}
	for _, b := range corpus {
		for _, v := range variants {
			w.inputs = append(w.inputs, hardenInput{name: b.Name + "/" + v.tag, text: mir.Print(b.Program(v.cfg))})
		}
	}
	r := seedRand(o.seed, "harden")
	for i := 0; i < nGen; i++ {
		sz := mirgenSizes[(i/8)%len(mirgenSizes)]
		cfg := mirgen.Config{
			Seed:         r.Int63(),
			Funcs:        sz.funcs,
			StmtsPerFunc: sz.stmts,
			Threads:      i % 3,
			Bug:          mirgen.BugKind(i % 8),
		}
		w.inputs = append(w.inputs, hardenInput{
			name: fmt.Sprintf("mirgen/%v/f%d-s%d/%d", cfg.Bug, cfg.Funcs, cfg.StmtsPerFunc, cfg.Seed),
			text: mir.Print(mirgen.Gen(cfg)),
		})
	}
	// Largest inputs first, so the slowest ops start early and do not idle
	// a worker at the end of the batch.
	sort.SliceStable(w.inputs, func(i, j int) bool { return len(w.inputs[i].text) > len(w.inputs[j].text) })
	return w, nil
}

// memoBudget bounds the hardened instructions whose compiled programs the
// interp.Compile memo may hold between flushes.
const memoBudget = 150_000

// release flushes the compile memo once the ops since the last flush have
// compiled more than memoBudget instructions. Every module a harden op
// compiles is new, so the pointer-keyed memo only ever retains dead
// programs: left alone it would hold up to its 1024-entry bound of
// hardened paper apps, gigabytes, and peak_rss_mb would measure the memo.
// The flush runs after the op's timing, in its own bench.flush span, but
// inside the pass's clock: the other worker's ops run meanwhile, so the
// pass cannot stop for it. bench.flush_s is its share of the pass.
func (w *hardenWorkload) release(p *passCtx, parent, instrs int64) {
	w.mu.Lock()
	w.pending += instrs
	flush := w.pending > memoBudget
	if flush {
		w.pending = 0
	}
	w.mu.Unlock()
	if flush {
		s := p.tr.startLane("bench.flush", parent, 0)
		flushCompileMemo()
		p.tr.end(s)
	}
}

// hardenCounts is one op's exact counts.
type hardenCounts struct {
	instrsIn, instrsHardened, instrsOut            int64
	reexecPoints, prunedSites, interprocSites, mod int64
}

func (w *hardenWorkload) pass(p *passCtx) {
	n := len(w.inputs)
	p.ops = make([]opStat, n)
	counts := make([]hardenCounts, n)
	outputs := make([][]string, n)
	p.batch(w.eng, n, func(i int, parent int64) {
		p.runOp(i, w.inputs[i].name, parent, func(op, sp int64) error {
			var err error
			outputs[i], err = hardenOp(p.tr, op, sp, w.inputs[i], &counts[i])
			return err
		})
		w.release(p, parent, counts[i].instrsOut)
	})
	// The round-trip check parses three times as many instructions as the
	// op; it is the benchmark's oracle, not pipeline work, so it runs after
	// the pass's clock stops and is not traced. Hardening is deterministic:
	// pass 0's outputs are checked in full, and each later output must be
	// byte-identical to the checked one.
	p.stopClock()
	first := w.verified == nil
	if first {
		w.verified = make([][]uint64, n)
	}
	w.eng.Each(n, func(i int) {
		if p.ops[i].err != nil {
			return
		}
		if first {
			for _, text := range outputs[i] {
				if err := checkRoundTrip(text); err != nil {
					p.failf(i, "hardened output: %v", err)
					return
				}
				w.verified[i] = append(w.verified[i], maphash.String(w.hashSeed, text))
			}
			return
		}
		if len(outputs[i]) != len(w.verified[i]) {
			p.failf(i, "%d hardened outputs, pass 0 checked %d", len(outputs[i]), len(w.verified[i]))
			return
		}
		for k, text := range outputs[i] {
			if maphash.String(w.hashSeed, text) != w.verified[i][k] {
				p.failf(i, "hardened output %d differs from pass 0's checked output", k)
				return
			}
		}
	})
	var sum hardenCounts
	for _, c := range counts {
		sum.instrsIn += c.instrsIn
		sum.instrsHardened += c.instrsHardened
		sum.instrsOut += c.instrsOut
		sum.reexecPoints += c.reexecPoints
		sum.prunedSites += c.prunedSites
		sum.interprocSites += c.interprocSites
		sum.mod += c.mod
	}
	p.exact["mir.instrs_in"] = sum.instrsIn
	p.exact["mir.instrs_hardened_out"] = sum.instrsOut
	p.exact["core.modules_hardened"] = sum.mod
	p.exact["analysis.reexec_points"] = sum.reexecPoints
	p.exact["analysis.pruned_sites"] = sum.prunedSites
	p.exact["analysis.interproc_sites"] = sum.interprocSites
	// code_growth_pct in basis points, so the exact counter stays integral.
	p.exact["code_growth_bp"] = 10000 * (sum.instrsOut - sum.instrsHardened) / sum.instrsHardened
	p.work = sum.instrsIn
}

// hardenOp is one op: it parses the input text, hardens it in each mode,
// compiles each hardened module and prints it, returning the texts.
func hardenOp(tr *tracer, op, sp int64, in hardenInput, c *hardenCounts) ([]string, error) {
	s := tr.start("mir.parse", sp, op)
	m, err := mir.Parse(in.text)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("parse input: %w", err)
	}
	c.instrsIn = int64(m.NumInstrs())
	modes := []core.Options{core.DefaultOptions()}
	if in.bug != nil {
		pos, err := in.bug.FixSite(m)
		if err != nil {
			return nil, fmt.Errorf("fix site: %w", err)
		}
		modes = append(modes, core.FixOptions(pos))
	}
	var texts []string
	for _, opts := range modes {
		h, err := hardenSpan(tr, op, sp, m, opts)
		if err != nil {
			return nil, fmt.Errorf("harden (%v): %w", opts.Mode, err)
		}
		s = tr.start("interp.compile", sp, op)
		interp.Compile(h.Module)
		tr.end(s)
		s = tr.start("mir.print", sp, op)
		texts = append(texts, mir.Print(h.Module))
		tr.end(s)

		c.mod++
		c.instrsHardened += c.instrsIn
		c.instrsOut += int64(h.Module.NumInstrs())
		c.reexecPoints += int64(h.Report.StaticReexecPoints)
		c.prunedSites += int64(h.Report.PrunedSites)
		c.interprocSites += int64(h.Report.InterprocSites)
	}
	return texts, nil
}

// hardenSpan calls core.Harden inside a core.harden span and splits it
// with core.Report's measured AnalysisTime and TransformTime; the rest of
// the span (input and output verification) is core.verify_s.
func hardenSpan(tr *tracer, op, sp int64, m *mir.Module, opts core.Options) (*core.Hardened, error) {
	s := tr.start("core.harden", sp, op)
	h, err := core.Harden(m, opts)
	tr.end(s)
	if err != nil || tr == nil {
		return h, err
	}
	hs := tr.get(s)
	a := min(hs.Start+h.Report.AnalysisTime.Nanoseconds(), hs.End)
	t := min(a+h.Report.TransformTime.Nanoseconds(), hs.End)
	tr.add("analysis.analyze", s, op, hs.Start, a)
	tr.add("transform.apply", s, op, a, t)
	return h, nil
}

// checkRoundTrip checks one hardened output: the text parses, the module
// verifies, and printing it again gives the same text.
func checkRoundTrip(text string) error {
	m, err := mir.Parse(text)
	if err != nil {
		return fmt.Errorf("printed text does not parse: %w", err)
	}
	if err := mir.Verify(m); err != nil {
		return fmt.Errorf("does not verify: %w", err)
	}
	if mir.Print(m) != text {
		return fmt.Errorf("print→parse→print is not a fixed point")
	}
	return nil
}
