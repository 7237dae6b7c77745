package main

import (
	"reflect"
	"testing"
)

func TestSelfTimeNestedTree(t *testing.T) {
	// One thread: root [0,100] holds a [10,40] (which holds b [20,30])
	// and c [50,90].
	spans := []span{
		{start: 0, end: 100, parent: -1, tid: 1, pid: 1},
		{start: 10, end: 40, parent: 0, tid: 1, pid: 1},
		{start: 20, end: 30, parent: 1, tid: 1, pid: 1},
		{start: 50, end: 90, parent: 0, tid: 1, pid: 1},
	}
	want := []int64{30, 20, 10, 40}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestSelfTimeSuspendedCall(t *testing.T) {
	// Thread 1's call [0,50] suspends at 10; thread 2 runs a call
	// [10,20] and then code outside any span until thread 1 resumes at
	// 45. The episode root (no thread) spans everything.
	spans := []span{
		{start: 0, end: 60, parent: -1},                       // root
		{start: 0, end: 50, parent: 0, tid: 1, pid: 1, cs: 2}, // suspended call
		{start: 10, end: 20, parent: -1, tid: 2, pid: 1},      // other thread's call
		{start: 45, end: 48, parent: 1, tid: 1, pid: 1},       // child after resuming
	}
	// [0,10) call; [10,20) other; [20,45) thread 2 has nothing open ->
	// root; [45,48) child; [48,50) call; [50,60) root.
	want := []int64{35, 12, 10, 3}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var total int64
	for _, v := range got {
		total += v
	}
	if total != 60 {
		t.Errorf("self times sum to %d, want the traced 60", total)
	}
}

func TestTimedSpansClip(t *testing.T) {
	tr := &tracer{from: 10, to: 20, spans: []span{
		{start: 0, end: 5},   // before: dropped
		{start: 5, end: 15},  // clipped to [10,15]
		{start: 12, end: 18}, // kept
		{start: 18, end: 30}, // clipped to [18,20]
		{start: 25, end: 26}, // after: dropped
		{start: 15, end: 0},  // never closed: dropped
	}}
	got := tr.timedSpans()
	want := []span{{start: 10, end: 15}, {start: 12, end: 18}, {start: 18, end: 20}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("timed spans %+v, want %+v", got, want)
	}
}

func TestLayerShare(t *testing.T) {
	var l layerStats
	l.add([]span{
		{start: 0, end: 100, parent: -1, name: spEpisode},
		{start: 10, end: 30, tid: 1, pid: 1, name: spLockNone},
		{start: 40, end: 50, tid: 1, pid: 1, name: spSemPV, cs: 1},
	}, 100)
	if s := l.share("core"); s != 0.2 {
		t.Errorf("core share %v, want 0.2", s)
	}
	if s := l.share("sem"); s != 0.1 {
		t.Errorf("sem share %v, want 0.1", s)
	}
	if n := l.names[spSemPV]; n.suspended != 1 || len(n.selfContained) != 0 {
		t.Errorf("sem.pv counted %d suspended, %d self-contained; want 1, 0", n.suspended, len(n.selfContained))
	}
}
