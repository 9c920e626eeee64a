package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"conair/internal/experiments"
	"conair/internal/runner"
)

// opStat is one op's outcome: its input, latency and check verdict.
type opStat struct {
	name string
	dur  time.Duration
	err  error
}

// passCtx is one pass over a workload's batch. Ops write into their own
// slot of ops; counts are merged after the batch, in op order.
type passCtx struct {
	tr    *tracer
	index int
	ops   []opStat
	// exact holds the counters that must repeat bit for bit on every pass
	// and at any worker count; layer holds the per-layer figures that may
	// vary (times, speculative work, allocations).
	exact map[string]int64
	layer map[string]float64
	// work is the pass's processed instructions: MIR instructions hardened
	// (harden) or VM instructions executed (the run workloads).
	work int64
	// spec holds the interpreter counts of speculative PCT seeds (detect),
	// kept out of the exact interp.* counters.
	spec runCounts

	wall                time.Duration
	t0                  time.Time
	span                [2]int64 // the measured interval in tracer time
	stopped             bool
	regBefore, regAfter map[string]int64
	memBefore, memAfter runtime.MemStats
}

// runCounts are the interpreter counts of a set of runs.
type runCounts struct{ steps, checkpoints, rollbacks, compUnlocks int64 }

func newPassCtx(tr *tracer, index int) *passCtx {
	return &passCtx{
		tr: tr, index: index,
		exact: make(map[string]int64),
		layer: make(map[string]float64),
	}
}

// opID is the span op id of op i in this pass, unique across passes.
func (p *passCtx) opID(i int) int64 { return int64(p.index)<<24 | int64(i+1) }

// begin snapshots the counters a pass is measured against. Counters are
// always read as before/after deltas of the process-wide registry: nothing
// is ever reset, so setup work and earlier passes cannot leak in.
func (p *passCtx) begin() {
	runtime.ReadMemStats(&p.memBefore)
	p.regBefore = experiments.Registry().Snapshot()
	p.t0 = time.Now()
	if p.tr != nil {
		p.span[0] = p.tr.now()
	}
}

// stopClock ends the pass's measurement: its wall time, registry and
// runtime deltas. A workload calls it early to leave its output checks,
// the benchmark's own work, out of the pass.
func (p *passCtx) stopClock() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.wall = time.Since(p.t0)
	if p.tr != nil {
		p.span[1] = p.tr.now()
	}
	p.regAfter = experiments.Registry().Snapshot()
	runtime.ReadMemStats(&p.memAfter)
}

// end closes the pass and folds the registry and runtime deltas in.
func (p *passCtx) end() {
	p.stopClock()
	mem, after := &p.memAfter, p.regAfter
	d := func(name string) int64 { return after[name] - p.regBefore[name] }

	p.exact["interp.instrs"] = d("interp_steps_total") - p.spec.steps
	p.exact["interp.checkpoints"] = d("interp_checkpoints_total") - p.spec.checkpoints
	p.exact["interp.rollbacks"] = d("interp_rollbacks_total") - p.spec.rollbacks
	p.exact["interp.comp_unlocks"] = d("interp_comp_unlocks_total") - p.spec.compUnlocks
	p.layer["interp.spec_instrs"] = float64(p.spec.steps)
	p.layer["interp.superblocks"] = float64(d("interp_superblocks_executed_total"))
	p.layer["interp.quanta_saved"] = float64(d("interp_quanta_saved_total"))
	p.layer["sanitizer.fastpath_hits"] = float64(d("sanitizer_fastpath_hits_total"))
	p.layer["sanitizer.vc_joins"] = float64(d("sanitizer_vc_joins_total"))
	p.layer["sanitizer.seeds_cancelled"] = float64(d("sanitize_search_seeds_cancelled_total"))
	p.layer["runtime.allocs"] = float64(mem.Mallocs - p.memBefore.Mallocs)
	p.layer["runtime.alloc_bytes"] = float64(mem.TotalAlloc - p.memBefore.TotalAlloc)
	p.layer["runtime.gc_cycles"] = float64(mem.NumGC - p.memBefore.NumGC)
	if p.work == 0 {
		p.work = p.exact["interp.instrs"]
	}
}

// batch runs n ops on the benchmark engine inside one runner.batch span,
// measuring each job's queue wait (batch start to job start) and busy
// time around the job closure.
func (p *passCtx) batch(eng runner.Engine, n int, op func(i int, parent int64)) {
	sp := p.tr.startLane("runner.batch", 0, 0)
	start := time.Now()
	var wait, busy atomic.Int64
	eng.Each(n, func(i int) {
		t0 := time.Now()
		wait.Add(t0.Sub(start).Nanoseconds())
		op(i, sp)
		busy.Add(time.Since(t0).Nanoseconds())
	})
	wall := time.Since(start)
	p.tr.end(sp)
	p.layer["runner.jobs"] += float64(n)
	p.layer["runner.queue_wait_s"] += float64(wait.Load()) / 1e9
	p.layer["runner.busy_frac"] = float64(busy.Load()) / (float64(wall.Nanoseconds()) * float64(eng.Workers))
}

// seedRand is the one source every input draw and scheduler seed list of
// a workload derives from.
func seedRand(seed int64, stream string) *rand.Rand {
	var h int64 = seed
	for _, c := range stream {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}

// schedSeeds draws n distinct scheduler seeds.
func schedSeeds(r *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := r.Int63n(1 << 30)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// runOp times op i inside a bench.op span and records its outcome. fn
// receives the op id and the op span for its layer spans.
func (p *passCtx) runOp(i int, name string, parent int64, fn func(op, sp int64) error) {
	op := p.opID(i)
	sp := p.tr.startLane("bench.op", parent, op)
	t0 := time.Now()
	err := fn(op, sp)
	p.ops[i] = opStat{name: name, dur: time.Since(t0), err: err}
	p.tr.end(sp)
}

// failf records a failed check on op i found after its batch.
func (p *passCtx) failf(i int, format string, args ...any) {
	if p.ops[i].err == nil {
		p.ops[i].err = fmt.Errorf(format, args...)
	}
}
