package main

import (
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run's result line, the ones a
// user sees and BENCHMARK.json bounds. The report lines also print
// op_ms_p50, failed_frac and the instruction rates: half of survive's ops
// are runs of the small apps and half of the large ones, so its median op
// sits on the edge between two clusters of latencies; the instruction
// rates are the op rates times a per-pass constant.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Times are seconds of self
// time per pass (core.harden_s is inclusive; its self time is
// core.verify_s); counts are per pass. A layer a workload does not reach
// reports 0.
var perLayer = []metricDef{
	{"mir.parse_s", "s"}, {"mir.print_s", "s"}, {"mir.instrs_in", "count"},
	{"core.harden_s", "s"}, {"analysis.analyze_s", "s"}, {"transform.apply_s", "s"}, {"core.verify_s", "s"},
	{"analysis.reexec_points", "count"}, {"analysis.pruned_sites", "count"}, {"analysis.interproc_sites", "count"},
	{"code_growth_pct", "%"},
	{"interp.compile_s", "s"},
	{"interp.run_s", "s"}, {"interp.instrs", "count"}, {"interp.checkpoints", "count"}, {"interp.rollbacks", "count"},
	{"interp.comp_unlocks", "count"}, {"interp.superblocks", "count"}, {"interp.quanta_saved", "count"},
	{"interp.spec_instrs", "count"}, {"overhead_pct", "%"},
	{"sched.picks", "count"}, {"sched.flight_segments", "count"},
	{"runner.queue_wait_s", "s"}, {"runner.idle_s", "s"}, {"runner.busy_frac", "ratio"}, {"runner.jobs", "count"},
	{"sanitizer.search_s", "s"}, {"sanitizer.seeds_attempted", "count"}, {"sanitizer.seeds_cancelled", "count"},
	{"sanitizer.useful_frac", "ratio"}, {"sanitizer.fastpath_hits", "count"}, {"sanitizer.vc_joins", "count"},
	{"sanitizer.slowdown", "ratio"},
	{"replay.record_s", "s"}, {"replay.encode_s", "s"}, {"replay.decode_s", "s"}, {"replay.verify_s", "s"},
	{"replay.minimize_s", "s"}, {"replay.probes", "count"}, {"replay.switches_in", "count"},
	{"replay.switches_out", "count"}, {"replay.cnr_bytes", "B"},
	{"bench.op_s", "s"}, {"bench.flush_s", "s"}, {"bench.unattributed_s", "s"},
	{"runtime.allocs", "count"}, {"runtime.alloc_bytes", "B"}, {"runtime.gc_cycles", "count"},
}

// spanMetrics maps span names to the per-layer time metric of their self
// time.
var spanMetrics = map[string]string{
	"mir.parse": "mir.parse_s", "mir.print": "mir.print_s",
	"core.harden": "core.verify_s", "analysis.analyze": "analysis.analyze_s", "transform.apply": "transform.apply_s",
	"interp.compile": "interp.compile_s", "interp.run": "interp.run_s",
	"runner.batch":     "runner.idle_s",
	"sanitizer.search": "sanitizer.search_s",
	"replay.record":    "replay.record_s", "replay.encode": "replay.encode_s", "replay.decode": "replay.decode_s",
	"replay.verify": "replay.verify_s", "replay.minimize": "replay.minimize_s",
	"bench.op": "bench.op_s", "bench.flush": "bench.flush_s",
}

// result accumulates a run's passes.
type result struct {
	o         *options
	setups    []float64
	passes    int
	wall      time.Duration
	opMs      []float64
	attempted int
	failed    int
	failures  map[string]string // input name → first failure
	opsRate   []float64         // ops per second, one per pass
	workRate  []float64         // instructions per second, one per pass
	fp        map[string]int64  // pass 0's exact counters
	drift     []string
	layer     map[string]float64 // per-pass sums of the layer figures
	spans     []span
	layers    map[string]*layerTime
	passSpans [][2]int64 // each pass's interval in tracer time
}

func newResult(o *options, setups []float64) *result {
	return &result{o: o, setups: setups, failures: map[string]string{}, layer: map[string]float64{}}
}

func (r *result) addPass(p *passCtx) {
	r.passes++
	r.wall += p.wall
	r.passSpans = append(r.passSpans, p.span)
	for _, op := range p.ops {
		r.attempted++
		r.opMs = append(r.opMs, float64(op.dur.Nanoseconds())/1e6)
		if op.err != nil {
			r.failed++
			if _, seen := r.failures[op.name]; !seen {
				r.failures[op.name] = op.err.Error()
			}
		}
	}
	secs := p.wall.Seconds()
	r.opsRate = append(r.opsRate, float64(len(p.ops))/secs)
	r.workRate = append(r.workRate, float64(p.work)/secs)
	if r.fp == nil {
		r.fp = p.exact
	} else {
		for _, k := range slices.Sorted(maps.Keys(r.fp)) {
			if p.exact[k] != r.fp[k] {
				r.drift = append(r.drift, fmt.Sprintf("pass %d: %s = %d, pass 0 had %d", p.index, k, p.exact[k], r.fp[k]))
			}
		}
	}
	for k, v := range p.layer {
		r.layer[k] += v
	}
}

// finish derives the traced run's per-layer times from its spans.
func (r *result) finish(tr *tracer) {
	if tr == nil {
		return
	}
	r.spans = tr.snapshot()
	r.layers = attribute(r.spans)
}

// correct reports whether every op passed its check and every pass
// reproduced the fingerprint.
func (r *result) correct() bool { return r.failed == 0 && len(r.drift) == 0 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile with at least ten samples beyond
// it, that percentile, and the sample count.
func tail(xs []float64) (value, pct float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n <= 10 {
		return s[n-1], 100, n
	}
	return s[n-11], 100 * float64(n-10) / float64(n), n
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// metrics returns the end-to-end or per-layer metric values.
func (r *result) metrics(traced bool) map[string]float64 {
	m := map[string]float64{}
	if !traced {
		m["setup_s"] = median(r.setups)
		m["ops_per_s"] = median(r.opsRate)
		m["op_ms_p50"] = median(r.opMs)
		m["op_ms_tail"], _, _ = tail(r.opMs)
		m["instrs_per_s"] = median(r.workRate)
		m["peak_rss_mb"] = peakRSSMB()
		return m
	}
	passes := float64(max(r.passes, 1))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	for k, v := range r.fp {
		m[k] = float64(v)
	}
	m["overhead_pct"] = float64(r.fp["overhead_bp"]) / 100
	m["code_growth_pct"] = float64(r.fp["code_growth_bp"]) / 100
	for k, v := range r.layer {
		m[k] = v / passes
	}
	for name, lt := range r.layers {
		if metric, ok := spanMetrics[name]; ok {
			m[metric] = lt.self / passes
		}
	}
	if lt := r.layers["core.harden"]; lt != nil {
		m["core.harden_s"] = lt.total / passes
	}
	m["bench.unattributed_s"] = r.unattributed() / passes
	if v, ok := r.layer["sanitizer.slowdown"]; ok {
		m["sanitizer.slowdown"] = v // measured once, not per pass
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = m[d.name]
	}
	return out
}

// unattributed is the measured wall time no top-level span covers.
func (r *result) unattributed() float64 {
	var top []span
	for _, s := range r.spans {
		if s.Parent == 0 {
			top = append(top, s)
		}
	}
	var gap int64
	for _, iv := range r.passSpans {
		gap += iv[1] - iv[0] - coverage(top, iv[0], iv[1])
	}
	return float64(gap) / 1e9
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) summary(traced bool) summaryLine {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	vals := r.metrics(traced)
	out := summaryLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return out
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

// writeReport prints every metric by name with its unit, the machine, the
// fingerprint and, for a traced run, the per-layer attribution.
func (r *result) writeReport(w io.Writer) {
	o := r.o
	fmt.Fprintf(w, "perfbench workload=%s seed=%d trace=%v workers=%d nproc=%d GOMAXPROCS=%d go=%s GOGC=%s passes=%d ops/pass=%d\n",
		o.workload, o.seed, o.trace, o.workers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc(),
		r.passes, r.attempted/max(r.passes, 1))
	e := r.metrics(false)
	tv, tp, tn := tail(r.opMs)
	fmt.Fprintf(w, "  setup_s            %.4f s (median of %d: %s)\n", e["setup_s"], len(r.setups), fmtList(r.setups, "%.4f"))
	fmt.Fprintf(w, "  ops_per_s          %.3f 1/s (median of %d passes: %s)\n", e["ops_per_s"], r.passes, fmtList(r.opsRate, "%.2f"))
	fmt.Fprintf(w, "  op_ms_p50          %.4f ms\n", e["op_ms_p50"])
	fmt.Fprintf(w, "  op_ms_tail         %.4f ms (p%.2f of %d samples)\n", tv, tp, tn)
	fmt.Fprintf(w, "  failed_frac        %.4f (%d of %d ops)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	fmt.Fprintf(w, "  peak_rss_mb        %.1f MB\n", e["peak_rss_mb"])
	switch o.workload {
	case "harden":
		fmt.Fprintf(w, "  mir_instrs_per_s   %.0f 1/s\n", e["instrs_per_s"])
		fmt.Fprintf(w, "  code_growth_pct    %.2f %%\n", float64(r.fp["code_growth_bp"])/100)
	case "survive":
		fmt.Fprintf(w, "  vm_instrs_per_s    %.0f 1/s\n", e["instrs_per_s"])
		fmt.Fprintf(w, "  overhead_pct       %.2f %%\n", float64(r.fp["overhead_bp"])/100)
	default:
		fmt.Fprintf(w, "  vm_instrs_per_s    %.0f 1/s\n", e["instrs_per_s"])
	}
	fmt.Fprintf(w, "  fingerprint        %s\n", r.fingerprint())
	for _, d := range r.drift {
		fmt.Fprintf(w, "  DRIFT              %s\n", d)
	}
	for _, name := range slices.Sorted(maps.Keys(r.failures)) {
		fmt.Fprintf(w, "  FAILED             %s: %s\n", name, clip(r.failures[name], 300))
	}
	if !o.trace {
		return
	}
	fmt.Fprintf(w, "  layer attribution per pass (self s, total s, calls, allocs, alloc bytes; allocations include concurrent workers):\n")
	for _, name := range slices.Sorted(maps.Keys(r.layers)) {
		lt := r.layers[name]
		n := float64(r.passes)
		fmt.Fprintf(w, "    %-18s %10.5f %10.5f %8.1f %12.0f %14.0f\n", name, lt.self/n, lt.total/n, float64(lt.calls)/n, float64(lt.allocs)/n, float64(lt.bytes)/n)
	}
	fmt.Fprintf(w, "    %-18s %10.5f\n", "(unattributed)", r.unattributed()/float64(r.passes))
	fmt.Fprintf(w, "  tracing overhead: compare ops_per_s above with an untraced run on the same seed\n")
	m := r.metrics(true)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-26s %.6g %s\n", d.name, m[d.name], d.unit)
	}
}

// fingerprint renders the exact counters in name order.
func (r *result) fingerprint() string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(r.fp)) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.fp[k]))
	}
	return strings.Join(parts, " ")
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
