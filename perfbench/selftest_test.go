package main

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/obs"
	"conair/internal/replay"
	"conair/internal/sched"
)

// The benchmark's self-test: every workload at a tiny size, checking that
// every named metric is reported with its unit, that the exact-count
// fingerprint repeats across runs and at 1 and 2 workers, that a hold-out
// seed passes every op check too, and that the traced run's span tree is
// well formed. Run it from this directory with `go test`.

func tiny(workload string, seed int64, workers int, trace bool) *options {
	return &options{workload: workload, seed: seed, passes: 2, tiny: true, setupReps: 2, workers: workers, trace: trace}
}

func mustRun(t *testing.T, o *options) *result {
	t.Helper()
	r, err := run(o)
	if err != nil {
		t.Fatalf("%s seed %d workers %d trace %v: %v", o.workload, o.seed, o.workers, o.trace, err)
	}
	if !r.correct() {
		t.Fatalf("%s seed %d workers %d trace %v: incorrect: failures %v, drift %v",
			o.workload, o.seed, o.workers, o.trace, r.failures, r.drift)
	}
	return r
}

// checkSummary checks the result line: exactly the contract's keys, and
// every metric of defs with its unit.
func checkSummary(t *testing.T, r *result, traced bool, defs []metricDef) {
	t.Helper()
	line, err := json.Marshal(r.summary(traced))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), line)
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s = %+v (present %v), want unit %q", d.name, m, ok, d.unit)
		}
	}
	if r.attempted < 1 {
		t.Errorf("attempted = %d", r.attempted)
	}
}

func TestSelfTest(t *testing.T) {
	for _, wl := range workloadNames() {
		t.Run(wl, func(t *testing.T) {
			one := mustRun(t, tiny(wl, 1, 1, false))
			two := mustRun(t, tiny(wl, 1, 2, false))
			traced := mustRun(t, tiny(wl, 1, 2, true))
			mustRun(t, tiny(wl, 2, 2, false)) // hold-out seed

			checkSummary(t, one, false, endToEnd)
			checkSummary(t, traced, true, perLayer)
			for _, m := range []string{"setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail", "instrs_per_s", "peak_rss_mb"} {
				if v := one.metrics(false)[m]; v <= 0 {
					t.Errorf("%s = %v, want > 0", m, v)
				}
			}

			if len(one.fp) == 0 {
				t.Fatal("empty fingerprint")
			}
			if !maps.Equal(one.fp, two.fp) {
				t.Errorf("fingerprint differs between 1 and 2 workers:\n 1: %s\n 2: %s", one.fingerprint(), two.fingerprint())
			}
			if !maps.Equal(one.fp, traced.fp) {
				t.Errorf("fingerprint differs between runs (traced):\n %s\n %s", one.fingerprint(), traced.fingerprint())
			}

			if len(traced.spans) == 0 {
				t.Fatal("traced run recorded no spans")
			}
			if err := checkSpans(traced.spans); err != nil {
				t.Error(err)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := writeTraceFile(path, traced.spans); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ct, err := obs.ReadChromeTrace(f)
			if err != nil {
				t.Fatalf("trace file: %v", err)
			}
			if len(ct.TraceEvents) != len(traced.spans) {
				t.Errorf("trace file has %d events, want %d", len(ct.TraceEvents), len(traced.spans))
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// the metrics the benchmark reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.kind, len(c.spec), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					c.kind, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestCheckSpansRejectsMalformedTrees pins the span-tree checks the
// self-test relies on.
func TestCheckSpansRejectsMalformedTrees(t *testing.T) {
	good := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 90},
	}
	if err := checkSpans(good); err != nil {
		t.Fatalf("well-formed tree rejected: %v", err)
	}
	for name, spans := range map[string][]span{
		"missing parent": {{ID: 1, Parent: 5, Start: 0, End: 1}},
		"child outside":  {good[0], {ID: 2, Parent: 1, Start: 50, End: 150}},
		"open span":      {good[0], {ID: 2, Parent: 1, Start: 50}},
	} {
		if err := checkSpans(spans); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestAttributeSelfTime pins self time as duration minus the union of the
// children's intervals, with overlapping children counted once.
func TestAttributeSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "op", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "op", Start: 40, End: 80},
	}
	lt := attribute(spans)
	if got, want := lt["batch"].self, 30e-9; got < want*0.999 || got > want*1.001 {
		t.Errorf("batch self = %v s, want %v s", got, want)
	}
	if got, want := lt["op"].total, 90e-9; got < want*0.999 || got > want*1.001 {
		t.Errorf("op total = %v s, want %v s", got, want)
	}
}

// TestFlushMemosEvicts pins memo.go against the library's memos: a module
// compiled, or printed for a recording, before flushMemos is compiled, or
// printed, afresh after it. If either memo's capacity or eviction policy
// changes, the flush stops evicting and this test fails.
func TestFlushMemosEvicts(t *testing.T) {
	m := mir.MustParse("global g = 0\nfunc main() {\nentry:\n  storeg @g, 1\n  ret 0\n}\n")
	prog := interp.Compile(m)
	if interp.Compile(m) != prog {
		t.Fatal("interp.Compile does not memoize")
	}
	text := func() *byte {
		_, finish := replay.Capture(m, interp.Config{Sched: sched.NewRandom(0)}, replay.Meta{})
		return unsafe.StringData(finish(&interp.Result{}).ModuleText)
	}
	printed := text()
	if text() != printed {
		t.Fatal("the recording artifact is not memoized")
	}
	flushMemos()
	if interp.Compile(m) == prog {
		t.Error("flushMemos left the module in the interp.Compile memo")
	}
	if text() == printed {
		t.Error("flushMemos left the module in the recording artifact memo")
	}
}
