package main

import (
	"runtime"
	rtm "runtime/metrics"
	"time"

	"pthreads/internal/core"
	"pthreads/internal/net"
	"pthreads/internal/vtime"
)

// libCounters are library counters read through the public Stats(),
// net.Stats and SyscallCounts accessors, summed over every System of a
// workload (one, or one per fleet host).
type libCounters struct {
	Switches, KernelEntries, Contentions, FakeCalls int64
	PoolHits, PoolMisses, RunnerBinds, ReadyGrows   int64
	FDWaits, FDTimeouts, Syscalls                   int64
	Segments, NetBytes                              int64

	// High-water marks since the systems were built (maximum over
	// systems); a delta keeps the later value.
	ReadyMaxDepth, RunnerPeak, FDMaxWaitDepth, ArenaChunks int64
}

func (c *libCounters) addSystem(s *core.System) {
	st := s.Stats()
	c.Switches += st.ContextSwitches
	c.KernelEntries += st.KernelEntries
	c.Contentions += st.MutexContentions
	c.FakeCalls += st.FakeCalls
	c.PoolHits += st.PoolHits
	c.PoolMisses += st.PoolMisses
	c.RunnerBinds += st.RunnerBinds
	c.ReadyGrows += st.ReadyGrows
	c.FDWaits += st.FDWaits
	c.FDTimeouts += st.FDTimeouts
	for _, n := range s.Kernel().SyscallCounts {
		c.Syscalls += n
	}
	c.ReadyMaxDepth = max(c.ReadyMaxDepth, st.ReadyMaxDepth)
	c.RunnerPeak = max(c.RunnerPeak, st.RunnerPeak)
	c.FDMaxWaitDepth = max(c.FDMaxWaitDepth, st.FDMaxWaitDepth)
	c.ArenaChunks += st.ArenaChunks
}

func (c *libCounters) addNet(st net.Stats) {
	c.Segments += st.Segments
	c.NetBytes += st.BytesSent
}

// since returns the counter deltas from start to c.
func (c libCounters) since(start libCounters) libCounters {
	d := c
	d.Switches -= start.Switches
	d.KernelEntries -= start.KernelEntries
	d.Contentions -= start.Contentions
	d.FakeCalls -= start.FakeCalls
	d.PoolHits -= start.PoolHits
	d.PoolMisses -= start.PoolMisses
	d.RunnerBinds -= start.RunnerBinds
	d.ReadyGrows -= start.ReadyGrows
	d.FDWaits -= start.FDWaits
	d.FDTimeouts -= start.FDTimeouts
	d.Syscalls -= start.Syscalls
	d.Segments -= start.Segments
	d.NetBytes -= start.NetBytes
	return d
}

func (c *libCounters) accumulate(d libCounters) {
	c.Switches += d.Switches
	c.KernelEntries += d.KernelEntries
	c.Contentions += d.Contentions
	c.FakeCalls += d.FakeCalls
	c.PoolHits += d.PoolHits
	c.PoolMisses += d.PoolMisses
	c.RunnerBinds += d.RunnerBinds
	c.ReadyGrows += d.ReadyGrows
	c.FDWaits += d.FDWaits
	c.FDTimeouts += d.FDTimeouts
	c.Syscalls += d.Syscalls
	c.Segments += d.Segments
	c.NetBytes += d.NetBytes
	c.ReadyMaxDepth = max(c.ReadyMaxDepth, d.ReadyMaxDepth)
	c.RunnerPeak = max(c.RunnerPeak, d.RunnerPeak)
	c.FDMaxWaitDepth = max(c.FDMaxWaitDepth, d.FDMaxWaitDepth)
	c.ArenaChunks = max(c.ArenaChunks, d.ArenaChunks)
}

// fabricCounters come from a fleet's ObsReport.
type fabricCounters struct {
	Grants, Retransmits, ObsSpans int64
	RunNS                         int64 // host ns inside fabric.Run
}

// Go runtime metrics sampled at phase start and end.
const (
	rtAllocs   = "/gc/heap/allocs:objects"
	rtGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	rtTotalCPU = "/cpu/classes/total:cpu-seconds"
	rtSchedLat = "/sched/latencies:seconds"
	rtLiveHeap = "/gc/heap/live:bytes"
)

type rtSnap struct {
	allocs          uint64
	gcCPU, totalCPU float64
	lat             *rtm.Float64Histogram
}

func readRuntime() rtSnap {
	s := []rtm.Sample{{Name: rtAllocs}, {Name: rtGCCPU}, {Name: rtTotalCPU}, {Name: rtSchedLat}}
	rtm.Read(s)
	return rtSnap{
		allocs:   s[0].Value.Uint64(),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
		lat:      s[3].Value.Float64Histogram(),
	}
}

// liveHeap forces a collection and reports the bytes it found live.
func liveHeap() uint64 {
	runtime.GC()
	s := []rtm.Sample{{Name: rtLiveHeap}}
	rtm.Read(s)
	return s[0].Value.Uint64()
}

// episodeResult is everything one episode measured. An episode builds
// the workload from scratch (setup), then runs a fixed amount of work
// (the timed phase); its virtual digest must be the same every time.
type episodeResult struct {
	setupNS, timedNS int64
	ops, failed      int64
	virtualNS        int64
	heapDelta        int64 // live heap growth over setup
	residents        int   // threads the setup left resident
	lib              libCounters
	fabric           fabricCounters
	allocs           uint64
	gcCPU, totalCPU  float64
	latCounts        []uint64 // scheduling-latency histogram delta
	latBuckets       []float64
	pendingPeak      int
	goroutinesPeak   int
	batches          []float64 // host ns per op of each full batch of the timed phase
	digest           string
}

// meter times one episode. Workload code calls its hooks in order:
// beginSetup, endSetup, beginTimed, op (per completed op), endTimed.
// The simulation runs one goroutine at a time, so op needs no locking.
type meter struct {
	batchOps int
	// gauge, when set, is sampled at every batch boundary for the
	// pending-timer peak (Clock().Pending() summed over systems).
	gauge func() int
	tr    *tracer // the episode's tracer, nil when untraced

	ep       *episodeResult
	setupT0  time.Time
	heap0    uint64
	timedT0  time.Time
	last     time.Time
	inBatch  int
	startLib libCounters
	startRT  rtSnap
	startV   vtime.Time
}

func (m *meter) beginEpisode() *episodeResult {
	m.ep = &episodeResult{}
	m.gauge = nil
	return m.ep
}

func (m *meter) beginSetup() {
	m.heap0 = liveHeap()
	m.setupT0 = time.Now()
}

// endSetup closes the setup phase; residents is the number of threads
// the setup left alive.
func (m *meter) endSetup(residents int) {
	m.ep.setupNS = int64(time.Since(m.setupT0))
	m.ep.heapDelta = int64(liveHeap()) - int64(m.heap0)
	m.ep.residents = residents
}

func (m *meter) beginTimed(lib libCounters, v vtime.Time) {
	m.startLib, m.startV = lib, v
	m.startRT = readRuntime()
	m.inBatch = 0
	m.tr.timedStart()
	m.timedT0 = time.Now()
	m.last = m.timedT0
}

// op records one completed op.
func (m *meter) op() {
	m.ep.ops++
	m.inBatch++
	if m.inBatch < m.batchOps {
		return
	}
	now := time.Now()
	m.ep.batches = append(m.ep.batches, float64(now.Sub(m.last))/float64(m.batchOps))
	m.last, m.inBatch = now, 0
	m.sample()
}

func (m *meter) sample() {
	if m.gauge != nil {
		m.ep.pendingPeak = max(m.ep.pendingPeak, m.gauge())
	}
	m.ep.goroutinesPeak = max(m.ep.goroutinesPeak, runtime.NumGoroutine())
}

func (m *meter) endTimed(lib libCounters, v vtime.Time) {
	ep := m.ep
	ep.timedNS = int64(time.Since(m.timedT0))
	m.tr.timedEnd()
	m.sample()
	end := readRuntime()
	ep.lib = lib.since(m.startLib)
	ep.virtualNS = int64(v - m.startV)
	ep.allocs = end.allocs - m.startRT.allocs
	ep.gcCPU = end.gcCPU - m.startRT.gcCPU
	ep.totalCPU = end.totalCPU - m.startRT.totalCPU
	ep.latBuckets = end.lat.Buckets
	ep.latCounts = make([]uint64, len(end.lat.Counts))
	for i, n := range end.lat.Counts {
		ep.latCounts[i] = n - m.startRT.lat.Counts[i]
	}
}

// histPercentile reads percentile p off a runtime/metrics histogram
// (bucket i spans buckets[i]..buckets[i+1]); it reports the bucket's
// upper bound, or its lower bound for the open-ended last bucket.
func histPercentile(counts []uint64, buckets []float64, p float64) float64 {
	var total uint64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total) * p / 100)
	var cum uint64
	for i, n := range counts {
		cum += n
		if cum > want {
			if hi := buckets[i+1]; hi < 1e300 {
				return hi
			}
			return buckets[i]
		}
	}
	return buckets[len(buckets)-1]
}
