package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"conair/internal/obs"
)

// span is one call into a layer, recorded by the benchmark around the
// call. Spans of one op share Op; Parent 0 marks a top-level span.
// Allocs and Bytes are the process-wide heap allocation deltas over the
// span: with several workers they include the other workers' allocations
// in the same interval, so per-layer allocation figures are attributions,
// not exact counts.
type span struct {
	ID, Parent, Op int64
	Name           string
	Lane           int   // display track: one op's spans share a lane
	Start, End     int64 // ns since the tracer started
	Allocs, Bytes  int64
	ownLane        bool
}

// tracer keeps every span in memory; they are written once at exit. A
// nil *tracer records nothing, so untraced runs pay one nil check per
// layer call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lanes []bool // lanes[i] reports lane i+1 is held by a running op
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func heapAllocs() (objects, bytes int64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64()), int64(s[1].Value.Uint64())
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// start opens a span that runs on its parent's goroutine and shares its
// display lane; it returns the span id (0 when t is nil).
func (t *tracer) start(name string, parent, op int64) int64 {
	return t.open(name, parent, op, false)
}

// startLane opens a span that may run concurrently with its siblings (an
// op or a batch) on a lane of its own, held until the span ends.
func (t *tracer) startLane(name string, parent, op int64) int64 {
	return t.open(name, parent, op, true)
}

func (t *tracer) open(name string, parent, op int64, own bool) int64 {
	if t == nil {
		return 0
	}
	objs, bytes := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	lane := 0
	switch {
	case own:
		lane = t.acquireLane()
	case parent != 0:
		lane = t.spans[parent-1].Lane
	}
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Lane: lane,
		Start: t.now(), Allocs: objs, Bytes: bytes, ownLane: own,
	})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	objs, bytes := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = t.now()
	s.Allocs = objs - s.Allocs
	s.Bytes = bytes - s.Bytes
	if s.ownLane {
		t.lanes[s.Lane-1] = false
	}
}

func (t *tracer) acquireLane() int {
	for i, busy := range t.lanes {
		if !busy {
			t.lanes[i] = true
			return i + 1
		}
	}
	t.lanes = append(t.lanes, true)
	return len(t.lanes)
}

// add records a span measured elsewhere: the split of core.Harden into
// analysis and transform comes from core.Report's durations, laid end to
// end from the start of the enclosing harden span.
func (t *tracer) add(name string, parent, op int64, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Op: op, Name: name, Lane: p.Lane,
		Start: start, End: end,
	})
}

// get returns a copy of span id.
func (t *tracer) get(id int64) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// checkSpans reports the first defect of a span tree: an open span, a
// missing parent, a parent that starts after its child, or a child that
// reaches outside its parent.
func checkSpans(spans []span) error {
	for i, s := range spans {
		if s.ID != int64(i+1) {
			return fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) [%d,%d] lies outside parent %d (%s) [%d,%d]",
				s.ID, s.Name, s.Start, s.End, p.ID, p.Name, p.Start, p.End)
		}
		if s.Op != p.Op && p.Op != 0 {
			return fmt.Errorf("span %d (%s) op %d differs from parent's op %d", s.ID, s.Name, s.Op, p.Op)
		}
	}
	return nil
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	self, total float64 // seconds
	allocs      int64
	bytes       int64
	calls       int
}

// attribute derives each layer's self time: a span's duration minus the
// part of it its children cover (children may overlap when jobs run on
// several workers, so coverage is the union of their intervals).
// Allocations are inclusive: concurrent children's process-wide deltas
// overlap, so subtracting them would not isolate the parent's own.
func attribute(spans []span) map[string]*layerTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		ch := children[s.ID]
		covered := coverage(ch, s.Start, s.End)
		lt.self += float64(s.End-s.Start-covered) / 1e9
		lt.total += float64(s.End-s.Start) / 1e9
		lt.allocs += s.Allocs
		lt.bytes += s.Bytes
		lt.calls++
	}
	return out
}

// coverage returns how many ns of [lo, hi] the spans' union covers.
func coverage(spans []span, lo, hi int64) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range iv {
		if v[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v[0], v[1]
		} else if v[1] > curB {
			curB = v[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// writeTraceFile writes the spans as Chrome trace_event JSON, the format
// conair -trace writes, so both open side by side in a trace viewer.
func writeTraceFile(path string, spans []span) error {
	tr := obs.ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]obs.ChromeEvent, 0, len(spans))}
	for _, s := range spans {
		tr.TraceEvents = append(tr.TraceEvents, obs.ChromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			TS: s.Start / 1000, Dur: max((s.End-s.Start)/1000, 1),
			PID: 1, TID: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op, "allocs": s.Allocs, "bytes": s.Bytes},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(&tr); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
