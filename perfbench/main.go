// Command perfbench is the ConAir performance benchmark. It drives the
// library's public functions from outside the production packages through
// four workloads that map onto the paper's evaluation:
//
//	harden   MIR text → parse → harden (survival, plus fix for the paper
//	         bugs) → compile; the compile-time pipeline (§6.4, Tables 2/4/6)
//	survive  failure-free full-workload runs, raw and hardened on the same
//	         seeds in one engine batch (Table 3 overhead, Tables 5/7)
//	recover  forced-failure light runs of hardened paper bugs through an
//	         engine with the flight recorder on (Table 3 recovery)
//	detect   PCT sanitizer searches to a verdict, then record, encode,
//	         decode, verify and minimize the flagging schedule (Table 3's
//	         sanitizer column and the corpus)
//
// One op's output is always checked; a failed check counts in failed, it
// is never dropped. A workload's ops form a fixed batch generated from
// -seed; the benchmark repeats whole passes over the batch for -seconds
// and reports per-pass medians. Every pass must reproduce the first pass's
// exact counters (the fingerprint) or the run is marked incorrect.
//
// With -trace 0 the last stdout line carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics of a separate traced run, and
// the spans are written once at exit as Chrome trace_event JSON.
//
// Run it through perfbench/run.py from the repository root, which builds
// this module and passes the flags through:
//
//	python3 perfbench/run.py --workload harden --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"conair/internal/experiments"
)

// options is one benchmark invocation. The command line sets the first
// four fields and leaves the rest at their defaults (parseFlags); the
// self-test sets every field directly.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	workers   int  // engine workers, at most nproc
	passes    int  // fixed pass count; 0 runs whole passes for seconds
	tiny      bool // shrink every batch to a handful of ops
	setupReps int  // setup_s is the median of this many setups
}

// workload is a prepared batch: its inputs are built, hardened and
// compiled, and pass runs every op once.
type workload interface {
	pass(p *passCtx)
}

// workloads builds each workload's batch from the options. Setup runs
// setupReps times from scratch; the last build is the one measured.
var workloads = map[string]func(o *options) (workload, error){
	"harden":  setupHarden,
	"survive": setupSurvive,
	"recover": setupRecover,
	"detect":  setupDetect,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func parseFlags(args []string, stderr io.Writer) (*options, error) {
	o := &options{workers: min(runtime.NumCPU(), 2), setupReps: 5}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed for the input draw and every scheduler seed list")
	fs.Float64Var(&o.seconds, "seconds", 10, "measure whole passes for this many seconds")
	traceFlag := fs.Int("trace", 0, "1 records per-layer spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, fmt.Errorf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	switch *traceFlag {
	case 0, 1:
		o.trace = *traceFlag == 1
	default:
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.writeReport(os.Stdout)
	line, err := json.Marshal(res.summary(o.trace))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if o.trace {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d.trace.json", o.workload, o.seed))
		if err := writeTraceFile(path, res.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// run sets the workload up, measures it and returns the result. An error
// means the benchmark itself could not run; failed ops are results.
func run(o *options) (*result, error) {
	// SanitizeSearch fans its seeds out on the experiments engine; the
	// other workloads build their own engine with the same worker count.
	experiments.SetWorkers(o.workers)
	var (
		w          workload
		setupTimes []float64
	)
	for i := 0; i < o.setupReps; i++ {
		// Drop the previous build, and the memo entries that keep its
		// modules alive, before timing the next, so every repetition
		// starts from the same heap state.
		w = nil
		flushMemos()
		runtime.GC()
		t0 := time.Now()
		var err error
		w, err = workloads[o.workload](o)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	res := newResult(o, setupTimes)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	for pass := 0; ; pass++ {
		if o.passes > 0 && pass >= o.passes {
			break
		}
		if o.passes == 0 && pass > 0 && res.wall.Seconds() >= o.seconds {
			break
		}
		p := newPassCtx(tr, pass)
		p.begin()
		w.pass(p)
		p.end()
		res.addPass(p)
	}
	if d, ok := w.(*detectWorkload); ok && o.trace {
		res.layer["sanitizer.slowdown"] = d.slowdown()
	}
	res.finish(tr)
	return res, nil
}
