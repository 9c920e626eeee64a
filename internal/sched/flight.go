package sched

import "math"

// This file is the schedule recorder. A FlightRecorder keeps the decision
// stream in rings of a chosen capacity: unbounded for a deliberate
// -record capture, or a ring of the most recent segments and Intn draws
// for always-on recording of every job of a multi-hour sweep —
// aviation-style: always writing, bounded tape, and the tape only
// matters when something goes wrong.
//
// The payoff of the bounded ring is the common forensic case: failing
// runs die young. A forced-failure run's whole schedule fits in a small
// ring, so for exactly the runs worth keeping the recording is complete
// and replayable bit-identically; long healthy runs wrap the ring and
// their (useless) recording is marked truncated instead of eating memory
// proportional to their step count.

// FlightRecorder wraps an inner scheduler and records its decision stream
// into rings. It is purely observational: Pick and Intn return exactly
// what the inner scheduler returns, so an attached recorder never changes
// a run.
type FlightRecorder struct {
	inner Scheduler
	limit int // ring capacity, in segments (and in Intn draws)

	segs  []Segment // ring; logical order starts at start once full
	start int       // index of the oldest segment when len(segs) == limit

	intns     []int64 // ring of Intn draws
	intnStart int

	wrapped bool // a segment or draw was evicted
}

// NewFlightRecorder returns a recorder around inner keeping at most limit
// segments and limit Intn draws; limit <= 0 keeps the whole stream.
func NewFlightRecorder(inner Scheduler, limit int) *FlightRecorder {
	if limit <= 0 {
		limit = math.MaxInt
	}
	return &FlightRecorder{inner: inner, limit: limit}
}

// lastIdx returns the ring index of the newest segment; only valid when
// len(f.segs) > 0.
func (f *FlightRecorder) lastIdx() int {
	if len(f.segs) < f.limit || f.start == 0 {
		return len(f.segs) - 1
	}
	return f.start - 1
}

// Pick implements Scheduler, recording the chosen thread in the ring.
func (f *FlightRecorder) Pick(runnable []int, step int64) int {
	t := f.inner.Pick(runnable, step)
	f.Note(int32(t))
	return t
}

// Note records one pick of tid without consulting the inner scheduler.
// The interpreter's devirtualized fast path draws from the inner
// *Random directly (bit-identical arithmetic to Random.Pick) and reports
// each resulting decision here, so the recorded stream is exactly what
// routing every pick through Pick would produce. The common same-thread
// case is one compare and one increment.
func (f *FlightRecorder) Note(tid int32) {
	if len(f.segs) > 0 {
		if last := f.lastIdx(); f.segs[last].TID == tid {
			f.segs[last].N++
			return
		}
	}
	f.push(tid, 1)
}

// NoteRun records n consecutive picks of tid — a superblock quantum's
// worth — in one ring update. n <= 0 is a no-op.
func (f *FlightRecorder) NoteRun(tid int32, n int64) {
	if n <= 0 {
		return
	}
	if len(f.segs) > 0 {
		if last := f.lastIdx(); f.segs[last].TID == tid {
			f.segs[last].N += n
			return
		}
	}
	f.push(tid, n)
}

// push starts a new segment, evicting the oldest slot when the ring is
// full (the slot after it then becomes the oldest).
func (f *FlightRecorder) push(tid int32, n int64) {
	if len(f.segs) < f.limit {
		f.segs = append(f.segs, Segment{TID: tid, N: n})
		return
	}
	f.wrapped = true
	f.segs[f.start] = Segment{TID: tid, N: n}
	f.start++
	if f.start == f.limit {
		f.start = 0
	}
}

// Intn implements Scheduler, recording the drawn value in the ring.
func (f *FlightRecorder) Intn(n int) int {
	v := f.inner.Intn(n)
	if len(f.intns) < f.limit {
		f.intns = append(f.intns, int64(v))
		return v
	}
	f.wrapped = true
	f.intns[f.intnStart] = int64(v)
	f.intnStart++
	if f.intnStart == f.limit {
		f.intnStart = 0
	}
	return v
}

// Name implements Scheduler.
func (f *FlightRecorder) Name() string { return "flight(" + f.inner.Name() + ")" }

// Inner returns the wrapped scheduler.
func (f *FlightRecorder) Inner() Scheduler { return f.inner }

// Segments returns a copy of the retained pick stream, oldest first (nil
// when nothing was picked).
func (f *FlightRecorder) Segments() []Segment {
	return append(append([]Segment(nil), f.segs[f.start:]...), f.segs[:f.start]...)
}

// Intns returns a copy of the retained Intn draws, oldest first (nil when
// nothing was drawn).
func (f *FlightRecorder) Intns() []int64 {
	return append(append([]int64(nil), f.intns[f.intnStart:]...), f.intns[:f.intnStart]...)
}

// Truncated reports whether the ring wrapped: the retained stream is then
// a strict suffix of the run's schedule and cannot replay the run from
// the start.
func (f *FlightRecorder) Truncated() bool { return f.wrapped }
