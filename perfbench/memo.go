package main

import (
	"conair/internal/interp"
	"conair/internal/mir"
	"conair/internal/replay"
	"conair/internal/sched"
)

// The library memoizes two things by module pointer: interp.Compile's
// compiled programs (at most 1024) and the recorder's printed text and
// hash of each module (at most 128). Both clear the whole cache when an
// insert finds it full. Keys keep their modules alive, so modules the
// benchmark has finished with stay in memory until a clear: the harden
// workload's dead hardened modules, and every setup repetition's inputs.
// The benchmark flushes both memos where it drops modules, so peak_rss_mb
// measures the workload rather than the memos' retention.

// Capacities of the two memos (interp progCacheMax, replay
// artifactCacheCap).
const (
	compileMemoEntries  = 1024
	artifactMemoEntries = 128
)

// flushCompileMemo inserts as many distinct trivial modules as the
// compile memo holds; the clear this triggers drops every earlier entry,
// and only trivial ones remain.
func flushCompileMemo() {
	base := trivialModule()
	for range compileMemoEntries {
		m := *base
		interp.Compile(&m)
	}
}

// flushMemos flushes the compile memo and the recorder's artifact memo.
func flushMemos() {
	flushCompileMemo()
	base := trivialModule()
	for range artifactMemoEntries {
		m := *base
		_, finish := replay.Capture(&m, interp.Config{Sched: sched.NewRandom(0)}, replay.Meta{})
		finish(&interp.Result{})
	}
}

func trivialModule() *mir.Module {
	return mir.MustParse("func main() {\nentry:\n  ret 0\n}\n")
}

// warmCompile compiles every module a run workload executes, so setup_s
// absorbs compilation and timed ops start from a compiled program. A clear
// can drop modules warmed before it; a second sweep re-adds them without
// clearing again.
func warmCompile(mods []*mir.Module) {
	for range 2 {
		for _, m := range mods {
			interp.Compile(m)
		}
	}
}

// warmArtifacts builds one recording per module, so the recorder's
// print-and-hash of each module lands in setup too; two sweeps for the
// same reason as warmCompile.
func warmArtifacts(mods []*mir.Module) {
	for range 2 {
		for _, m := range mods {
			_, finish := replay.Capture(m, interp.Config{Sched: sched.NewRandom(0)}, replay.Meta{})
			finish(&interp.Result{})
		}
	}
}
