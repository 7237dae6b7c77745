package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pthreads/internal/core"
)

// The traced run. The benchmark's own code opens a span around every
// call it makes into a layer's public function; spans stay in memory
// and are written out when the run ends. The simulation runs one
// thread at a time, so a call that suspended (its System made context
// switches while it was open) spans other threads' work; selfTimes
// charges that work to those threads, and suspended calls are counted
// apart from self-contained ones.

// spanName identifies a span; its layer is the prefix before the dot.
type spanName uint8

const (
	spEpisode spanName = iota
	spFabricNew
	spFabricRun
	spLockNone
	spLockInherit
	spLockCeiling
	spQueueLock
	spCondWait
	spCondHandoff
	spSemPV
	spYield
	spCreateJoin
	spKill
	spRaise
	spRead
	spWrite
	spContRead
	spDial
	spAccept
	spCreate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spEpisode:     "bench.episode",
	spFabricNew:   "fabric.new",
	spFabricRun:   "fabric.run",
	spLockNone:    "core.lock_pair.none",
	spLockInherit: "core.lock_pair.inherit",
	spLockCeiling: "core.lock_pair.ceiling",
	spQueueLock:   "core.lock",
	spCondWait:    "core.cond_wait",
	spCondHandoff: "core.cond_handoff",
	spSemPV:       "sem.pv",
	spYield:       "core.yield",
	spCreateJoin:  "core.create_join",
	spKill:        "core.kill",
	spRaise:       "unixkern.raise",
	spRead:        "io.read",
	spWrite:       "io.write",
	spContRead:    "io.cont_read",
	spDial:        "io.dial",
	spAccept:      "io.accept",
	spCreate:      "core.create",
}

func (n spanName) String() string { return spanNames[n] }

func (n spanName) layer() string {
	s := spanNames[n]
	return s[:strings.IndexByte(s, '.')]
}

type span struct {
	start, end int64 // host ns since the tracer's base
	op         int32 // op id the call belongs to (0: none)
	cs         int32 // context switches of the caller's System while open
	parent     int32 // index of the enclosing span of the same thread, -1 at the root
	tid        int32 // simulated thread id
	pid        int16 // host index + 1; 0 outside any host
	name       spanName
}

// tracer records spans. A nil *tracer records nothing, so untraced
// call sites cost a nil check.
type tracer struct {
	base     time.Time
	spans    []span
	from, to int64 // the timed phase, which the analysis clips spans to
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) timedStart() {
	if t != nil {
		t.from = t.now()
	}
}

func (t *tracer) timedEnd() {
	if t != nil {
		t.to = t.now()
	}
}

// timedSpans returns the spans clipped to the timed phase. A span left
// open by a torn-down host is dropped.
func (t *tracer) timedSpans() []span {
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < s.start || s.end <= t.from || s.start >= t.to {
			continue
		}
		s.start, s.end = max(s.start, t.from), min(s.end, t.to)
		out = append(out, s)
	}
	return out
}

// open starts a span for a call made by the current thread of sys on
// host; sys is nil and host -1 for calls made outside any simulated
// thread.
func (t *tracer) open(n spanName, parent, op int32, sys *core.System, host int) int32 {
	if t == nil {
		return -1
	}
	sp := span{parent: parent, op: op, pid: int16(host + 1), name: n}
	if sys != nil {
		sp.cs = -int32(sys.Stats().ContextSwitches)
		sp.tid = int32(sys.Self().ID())
	}
	sp.start = t.now()
	t.spans = append(t.spans, sp)
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32, sys *core.System) {
	if t == nil {
		return
	}
	sp := &t.spans[i]
	sp.end = t.now()
	if sys != nil {
		sp.cs += int32(sys.Stats().ContextSwitches)
	}
}

// selfTimes attributes host time to spans and returns each span's
// self time. Every open and close is made by the thread running at that
// instant, so the interval up to the next event, in time order, belongs
// to the thread that made the earlier event and is charged to that
// thread's innermost open span; when that thread has none open, the
// time goes to the innermost open span made outside any thread (the
// episode's root: bench.episode, or fabric.run, whose coordinator runs
// between host turns). For a call that did not suspend this is its
// duration minus its children's; a call that suspended keeps only its
// own thread's time around the switch, and the time other threads ran
// inside it goes to their spans. Self times therefore never overlap:
// their sum is at most the traced time. Spans that never closed (a
// torn-down host's blocked call) are ignored.
func selfTimes(spans []span) []int64 {
	type event struct {
		t    int64
		i    int32
		open bool
	}
	evs := make([]event, 0, 2*len(spans))
	for i := range spans {
		evs = append(evs, event{spans[i].start, int32(i), true}, event{spans[i].end, int32(i), false})
	}
	// At equal instants: closes before opens, inner closes before outer
	// ones, outer opens before inner ones (span indexes grow inward).
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.open != y.open {
			return !x.open
		}
		if x.open {
			return x.i < y.i
		}
		return x.i > y.i
	})
	self := make([]int64, len(spans))
	stacks := map[int64][]int32{}
	for k, e := range evs {
		sp := &spans[e.i]
		key := int64(sp.pid)<<32 | int64(uint32(sp.tid))
		st := stacks[key]
		if e.open {
			st = append(st, e.i)
		} else {
			for j := len(st) - 1; j >= 0; j-- {
				if st[j] == e.i {
					st = append(st[:j], st[j+1:]...)
					break
				}
			}
		}
		stacks[key] = st
		if len(st) == 0 {
			st = stacks[0]
		}
		if len(st) > 0 && k+1 < len(evs) {
			self[st[len(st)-1]] += evs[k+1].t - e.t
		}
	}
	return self
}

// nameStats summarizes the spans of one name. Counts and totals cover
// every span; the self-time samples behind the p50s stop at
// maxNameSamples, which bounds a long traced run's memory.
type nameStats struct {
	count, suspended int
	selfAll          []float64 // self time of every span
	selfContained    []float64 // self time of spans that did not suspend
	selfTotal        int64
}

const maxNameSamples = 1 << 18

// layerStats accumulates span statistics over traced episodes.
type layerStats struct {
	names   [numSpanNames]nameStats
	timedNS int64 // host time of the traced timed phases
	spans   int
}

func (l *layerStats) add(spans []span, timedNS int64) {
	self := selfTimes(spans)
	for i := range spans {
		st := &l.names[spans[i].name]
		st.count++
		st.selfTotal += self[i]
		if len(st.selfAll) < maxNameSamples {
			st.selfAll = append(st.selfAll, float64(self[i]))
		}
		if spans[i].cs > 0 {
			st.suspended++
		} else if len(st.selfContained) < maxNameSamples {
			st.selfContained = append(st.selfContained, float64(self[i]))
		}
	}
	l.timedNS += timedNS
	l.spans += len(spans)
}

// p50 is the median self time of n's spans: over the self-contained
// ones when contained is set, else over all of them.
func (l *layerStats) p50(n spanName, contained bool) float64 {
	st := &l.names[n]
	if contained {
		if len(st.selfContained) == 0 {
			return 0
		}
		return median(st.selfContained)
	}
	if len(st.selfAll) == 0 {
		return 0
	}
	return median(st.selfAll)
}

// share is the fraction of traced timed host time spent as self time
// in the spans of one layer.
func (l *layerStats) share(layer string) float64 {
	var t int64
	for n := range numSpanNames {
		if spanName(n).layer() == layer {
			t += l.names[n].selfTotal
		}
	}
	return ratio(float64(t), float64(l.timedNS))
}

// table renders the per-span-name table written next to the trace.
func (l *layerStats) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %9s %9s %12s %12s %10s\n", "span", "calls", "suspended", "p50_self_ns", "p50_all_ns", "share")
	for n := range numSpanNames {
		st := &l.names[n]
		if st.count == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-24s %9d %9d %12.0f %12.0f %10.4f\n", spanName(n), st.count, st.suspended,
			l.p50(spanName(n), true), l.p50(spanName(n), false), ratio(float64(st.selfTotal), float64(l.timedNS)))
	}
	fmt.Fprintf(&b, "(%d spans in %.3f s of traced timed host time; share is self time over that time)\n",
		l.spans, float64(l.timedNS)/1e9)
	return b.String()
}

// writeChromeTrace writes spans as Chrome trace-event JSON, which
// Perfetto and chrome://tracing open: one complete ("X") event per
// span, one process per host, one track per simulated thread.
func writeChromeTrace(path string, spans []span, hosts []string) error {
	hosts = append([]string{"bench"}, hosts...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	self := selfTimes(spans)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, h := range hosts {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, `{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%q}}`, i, h)
	}
	buf := make([]byte, 0, 256)
	for i := range spans {
		s := &spans[i]
		if s.end < s.start {
			continue
		}
		buf = append(buf[:0], `,{"name":"`...)
		buf = append(buf, s.name.String()...)
		buf = append(buf, `","cat":"`...)
		buf = append(buf, s.name.layer()...)
		buf = append(buf, `","ph":"X","ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"pid":`...)
		buf = strconv.AppendInt(buf, int64(s.pid), 10)
		buf = append(buf, `,"tid":`...)
		buf = strconv.AppendInt(buf, int64(s.tid), 10)
		buf = append(buf, `,"args":{"op":`...)
		buf = strconv.AppendInt(buf, int64(s.op), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"switches":`...)
		buf = strconv.AppendInt(buf, int64(s.cs), 10)
		buf = append(buf, `,"self_ns":`...)
		buf = strconv.AppendInt(buf, self[i], 10)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
