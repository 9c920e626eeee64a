package sched

import (
	"reflect"
	"testing"
)

// TestFlightRecorderTransparent pins the flight recorder's observational
// contract: a wrapped scheduler returns exactly the decisions the
// unwrapped one would, for Pick and Intn, even while the ring wraps.
func TestFlightRecorderTransparent(t *testing.T) {
	plain := NewRandom(42)
	fr := NewFlightRecorder(NewRandom(42), 8) // tiny ring: wraps constantly

	runnable := [][]int{
		{0}, {0, 1}, {0, 1, 2}, {1, 2}, {0, 2, 5, 9}, {3}, {0, 1, 2, 3, 4},
	}
	for step := int64(0); step < 10_000; step++ {
		r := runnable[int(step)%len(runnable)]
		if got, want := fr.Pick(r, step), plain.Pick(r, step); got != want {
			t.Fatalf("step %d: flight pick %d, plain pick %d", step, got, want)
		}
		if step%97 == 0 {
			n := int(step%7) + 2
			if got, want := fr.Intn(n), plain.Intn(n); got != want {
				t.Fatalf("step %d: flight Intn %d, plain %d", step, got, want)
			}
		}
	}
	if !fr.Truncated() {
		t.Fatal("10k picks through an 8-segment ring did not truncate")
	}
}

// TestFlightRecorderMatchesRecorder checks that a bounded flight
// recording that never wraps is segment-for-segment identical to an
// unbounded capture of the same run — the property that makes a failing
// run's flight tape a complete, bit-identical replayable artifact.
func TestFlightRecorderMatchesRecorder(t *testing.T) {
	full := NewFlightRecorder(NewRandom(9), 0) // unbounded
	fr := NewFlightRecorder(NewRandom(9), 1<<16)

	runnable := [][]int{{0, 1, 2, 3}, {1, 3}, {0, 2}, {2, 3, 4}}
	for step := int64(0); step < 20_000; step++ {
		r := runnable[int(step)%len(runnable)]
		full.Pick(r, step)
		fr.Pick(r, step)
		if step%11 == 0 {
			full.Intn(6)
			fr.Intn(6)
		}
	}
	if fr.Truncated() {
		t.Fatal("ring truncated below its capacity")
	}
	if !reflect.DeepEqual(fr.Segments(), full.Segments()) {
		t.Fatalf("flight segments diverge from full recorder:\n flight %d segs\n full %d segs",
			len(fr.Segments()), len(full.Segments()))
	}
	if !reflect.DeepEqual(fr.Intns(), full.Intns()) {
		t.Fatal("flight Intn stream diverges from full recorder")
	}
}

// TestFlightRecorderRingOrder drives a deterministic pick pattern through
// a tiny ring and checks the retained segments are exactly the newest
// ones, oldest first.
func TestFlightRecorderRingOrder(t *testing.T) {
	fr := NewFlightRecorder(NewScripted([]int{1, 2, 3, 4, 5, 6, 7}, 1), 3)
	for step := int64(0); step < 7; step++ {
		// Only the scripted thread is runnable, so each pick is a new
		// single-pick segment.
		fr.Pick([]int{1, 2, 3, 4, 5, 6, 7}, step)
	}
	want := []Segment{{TID: 5, N: 1}, {TID: 6, N: 1}, {TID: 7, N: 1}}
	if got := fr.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring retained %+v, want %+v", got, want)
	}
	if !fr.Truncated() {
		t.Fatal("7 segments through a 3-segment ring did not truncate")
	}
}

// TestFlightRecorderLastSegmentExtends pins the RLE boundary case around
// eviction: a repeated pick extends the newest segment in place rather
// than evicting another slot.
func TestFlightRecorderLastSegmentExtends(t *testing.T) {
	fr := NewFlightRecorder(NewScripted([]int{1, 2, 3, 4, 4, 4}, 1), 3)
	for step := int64(0); step < 6; step++ {
		fr.Pick([]int{1, 2, 3, 4}, step)
	}
	want := []Segment{{TID: 2, N: 1}, {TID: 3, N: 1}, {TID: 4, N: 3}}
	if got := fr.Segments(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring retained %+v, want %+v", got, want)
	}
}

// TestFlightRecorderUnbounded pins limit <= 0 as "keep everything": a
// stream far longer than any bounded ring in use is retained whole.
func TestFlightRecorderUnbounded(t *testing.T) {
	const n = 1 << 16
	fr := NewFlightRecorder(NewRandom(1), 0)
	for i := 0; i < n; i++ {
		fr.Note(int32(i % 2)) // every pick switches thread: one segment each
		fr.Intn(3)
	}
	if fr.Truncated() {
		t.Fatal("unbounded recorder truncated")
	}
	if got := len(fr.Segments()); got != n {
		t.Fatalf("retained %d segments, want %d", got, n)
	}
	if got := len(fr.Intns()); got != n {
		t.Fatalf("retained %d draws, want %d", got, n)
	}
}
