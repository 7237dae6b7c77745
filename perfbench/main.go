// Command perfbench is the host-performance benchmark of the pthreads
// simulator. Virtual-time results are fixed by the cost model, so the
// one performance that can move is host cost: how many host
// nanoseconds the simulator spends per simulated op. Three closed-loop
// workloads drive the library only through its public functions; each
// run reports end-to-end host metrics with tracing off, or, with
// --trace 1, per-layer metrics from spans the benchmark records around
// its own calls into each layer. Every run also checks that no virtual
// result moved (see check.go). NOTES.md lists every metric.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload sync-pool --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload runs one episode: build the workload from scratch, then run
// its fixed amount of work, driving the meter's hooks.
type workload interface {
	episode(m *meter, tr *tracer) error
}

type spec struct {
	name, why string
	batchOps  int      // ops per latency batch
	hosts     []string // process names for the trace export
	// build generates the workload's inputs. Traced runs get smaller
	// episodes, so that their spans fit in memory and the trace export
	// stays a few tens of MB.
	build func(seed int64, traced bool) workload
}

var specs = []spec{
	{
		name:     "sync-pool",
		why:      "core kernel/dispatcher, mutex fast path, sched queues, goroutine handoff and signals; no io, net, vtime load or fabric",
		batchOps: 2048,
		hosts:    []string{"host"},
		build: func(seed int64, traced bool) workload {
			return &syncPool{in: genPool(seed, pick(traced, 10000, 1000000))}
		},
	},
	{
		name:     "echo-parked",
		why:      "io, net, fd waits, SIGIO batching, the timer wheel at 100k occupancy and the cont/runner path; no mutex, cond or create",
		batchOps: 512,
		hosts:    []string{"host"},
		build: func(seed int64, traced bool) workload {
			return &echoParked{in: genEcho(seed, 100000, 4, pick(traced, 2500, 40000))}
		},
	},
	{
		name:     "fleet-dc",
		why:      "fabric coordinator grants and leases, cross-host routing with RTO retries, and the span/rollup observers",
		batchOps: 16,
		hosts:    []string{"lb", "r0", "r1", "r2", "r3", "c0", "c1", "c2", "c3"},
		build:    func(seed int64, traced bool) workload { return &fleetDC{in: genFleet(seed, 2000, 5)} },
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func pick(traced bool, small, full int) int {
	if traced {
		return small
	}
	return full
}

// minEpisodes keeps setup_s a median of several set-ups.
const minEpisodes = 3

// runResult is one workload run.
type runResult struct {
	episodes []*episodeResult // untraced
	traced   []*episodeResult
	layers   *layerStats
	spans    []span // the first traced episode's spans, for export
	probes   map[string]float64
	err      error
}

// runWorkload runs episodes for the given host seconds: untraced ones
// until their timed phases add up to seconds, or, for a traced run,
// pairs of one untraced and one traced episode until seconds of wall
// time have passed.
func runWorkload(sp spec, seed int64, seconds float64, traced bool) *runResult {
	res := &runResult{}
	res.probes, res.err = checkPrimitives()
	if res.err != nil {
		return res
	}
	w := sp.build(seed, traced)
	m := &meter{batchOps: sp.batchOps}
	mt := &meter{batchOps: sp.batchOps}
	if traced {
		res.layers = &layerStats{}
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var timed time.Duration
	for {
		ep := m.beginEpisode()
		if res.err = w.episode(m, nil); res.err != nil {
			return res
		}
		res.episodes = append(res.episodes, ep)
		timed += time.Duration(ep.timedNS)
		if !traced {
			if timed >= budget && len(res.episodes) >= minEpisodes {
				return res
			}
			continue
		}
		ept := mt.beginEpisode()
		tr := &tracer{base: time.Now()}
		mt.tr = tr
		if res.err = w.episode(mt, tr); res.err != nil {
			return res
		}
		res.traced = append(res.traced, ept)
		res.layers.add(tr.timedSpans(), ept.timedNS)
		if res.spans == nil {
			res.spans = tr.spans
		}
		if time.Since(start) >= budget {
			return res
		}
	}
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

type totals struct {
	ops, failed, timedNS, virtualNS int64
	allocs                          uint64
	gcCPU, totalCPU                 float64
	lib                             libCounters
	fabric                          fabricCounters
	pendingPeak, goroutinesPeak     int
	latCounts                       []uint64
	latBuckets                      []float64
	setup, heap, bytesPerResident   []float64
	opsPerS, simSpeed               []float64 // per episode
}

func sum(eps []*episodeResult) totals {
	var t totals
	for _, e := range eps {
		t.ops += e.ops
		t.failed += e.failed
		t.timedNS += e.timedNS
		t.virtualNS += e.virtualNS
		t.allocs += e.allocs
		t.gcCPU += e.gcCPU
		t.totalCPU += e.totalCPU
		t.lib.accumulate(e.lib)
		t.fabric.Grants += e.fabric.Grants
		t.fabric.Retransmits += e.fabric.Retransmits
		t.fabric.ObsSpans += e.fabric.ObsSpans
		t.fabric.RunNS += e.fabric.RunNS
		t.pendingPeak = max(t.pendingPeak, e.pendingPeak)
		t.goroutinesPeak = max(t.goroutinesPeak, e.goroutinesPeak)
		if t.latCounts == nil {
			t.latCounts = make([]uint64, len(e.latCounts))
			t.latBuckets = e.latBuckets
		}
		for i, n := range e.latCounts {
			t.latCounts[i] += n
		}
		t.opsPerS = append(t.opsPerS, ratio(float64(e.ops), float64(e.timedNS)/1e9))
		t.simSpeed = append(t.simSpeed, ratio(float64(e.virtualNS), float64(e.timedNS)))
		t.setup = append(t.setup, float64(e.setupNS))
		t.heap = append(t.heap, float64(e.heapDelta))
		t.bytesPerResident = append(t.bytesPerResident, ratio(float64(e.heapDelta), float64(e.residents)))
	}
	return t
}

// endToEnd computes the end-to-end metrics of the untraced episodes.
// Rates and the tail are medians over episodes, so an episode disturbed
// by the machine's other load moves them little.
func endToEnd(res *runResult) ([]metric, tailInfo) {
	t := sum(res.episodes)
	var all, p99s []float64
	info := tailInfo{used: 100}
	for _, e := range res.episodes {
		all = append(all, e.batches...)
		p99, used, _ := tailPercentile(e.batches, 99)
		p99s = append(p99s, p99)
		info.used = min(info.used, used)
	}
	info.batches = len(all)
	info.perEpisode = len(all) / max(len(res.episodes), 1)
	return []metric{
		{"setup_s", "s", median(t.setup) / 1e9},
		{"ops_per_s", "1/s", median(t.opsPerS)},
		{"op_ns_p50", "ns", median(all)},
		{"op_ns_p99", "ns", median(p99s)},
		{"sim_speed", "vus/us", median(t.simSpeed)},
		{"allocs_per_op", "count", ratio(float64(t.allocs), float64(t.ops))},
		{"heap_mb", "MB", median(t.heap) / 1e6},
	}, info
}

type tailInfo struct {
	batches, perEpisode int
	used                float64 // lowest percentile an episode's tail used
}

// perLayer computes the per-layer metrics of a traced run.
func perLayer(res *runResult) []metric {
	t := sum(res.traced)
	u := sum(res.episodes)
	l := res.layers
	ops := float64(t.ops)
	per := func(n int64) float64 { return ratio(float64(n), ops) }
	reads := l.names[spRead]
	return []metric{
		{"core.lock_pair_ns.none", "ns", l.p50(spLockNone, true)},
		{"core.lock_pair_ns.inherit", "ns", l.p50(spLockInherit, true)},
		{"core.lock_pair_ns.ceiling", "ns", l.p50(spLockCeiling, true)},
		{"core.mutex_contentions_per_op", "count", per(t.lib.Contentions)},
		{"core.yield_ns", "ns", l.p50(spYield, false)},
		{"core.cond_handoff_ns", "ns", l.p50(spCondHandoff, false)},
		{"core.switches_per_op", "count", per(t.lib.Switches)},
		{"core.kernel_entries_per_op", "count", per(t.lib.KernelEntries)},
		{"runtime.sched_latency_p50_ns", "ns", 1e9 * histPercentile(t.latCounts, t.latBuckets, 50)},
		{"runtime.sched_latency_p99_ns", "ns", 1e9 * histPercentile(t.latCounts, t.latBuckets, 99)},
		{"runtime.goroutines_peak", "count", float64(t.goroutinesPeak)},
		{"core.create_join_ns", "ns", l.p50(spCreateJoin, false)},
		{"core.pool_hit_ratio", "ratio", ratio(float64(t.lib.PoolHits), float64(t.lib.PoolHits+t.lib.PoolMisses))},
		{"core.kill_ns", "ns", l.p50(spKill, false)},
		{"core.fake_calls_per_op", "count", per(t.lib.FakeCalls)},
		{"unixkern.raise_ns", "ns", l.p50(spRaise, false)},
		{"unixkern.syscalls_per_op", "count", per(t.lib.Syscalls)},
		{"core.runner_binds_per_op", "count", per(t.lib.RunnerBinds)},
		{"core.runner_peak", "count", float64(t.lib.RunnerPeak)},
		{"core.fd_waits_per_op", "count", per(t.lib.FDWaits)},
		{"core.fd_timeouts_per_op", "count", per(t.lib.FDTimeouts)},
		{"core.fd_max_wait_depth", "count", float64(t.lib.FDMaxWaitDepth)},
		{"sched.ready_max_depth", "count", float64(t.lib.ReadyMaxDepth)},
		{"sched.ready_grows", "count", float64(t.lib.ReadyGrows)},
		{"sem.pv_ns", "ns", l.p50(spSemPV, true)},
		{"vtime.pending_peak", "count", float64(t.pendingPeak)},
		{"io.read_ns", "ns", l.p50(spRead, false)},
		{"io.write_ns", "ns", l.p50(spWrite, false)},
		{"io.read_blocked_frac", "ratio", ratio(float64(reads.suspended), float64(reads.count))},
		{"net.segments_per_op", "count", per(t.lib.Segments)},
		{"net.bytes_per_op", "B", per(t.lib.NetBytes)},
		{"fabric.grants_per_op", "count", per(t.fabric.Grants)},
		{"fabric.turn_ns", "ns", ratio(float64(t.fabric.RunNS), float64(t.fabric.Grants))},
		{"fabric.retransmits_per_op", "count", per(t.fabric.Retransmits)},
		{"obs.spans_per_op", "count", per(t.fabric.ObsSpans)},
		{"arena.bytes_per_resident", "B", median(t.bytesPerResident)},
		{"arena.chunks", "count", float64(t.lib.ArenaChunks)},
		{"runtime.gc_cpu_frac", "ratio", ratio(t.gcCPU, t.totalCPU)},
		{"core.share", "ratio", l.share("core")},
		{"sem.share", "ratio", l.share("sem")},
		{"io.share", "ratio", l.share("io")},
		{"fabric.share", "ratio", l.share("fabric")},
		{"trace.overhead", "ratio", ratio(ratio(float64(t.ops), float64(t.timedNS)), ratio(float64(u.ops), float64(u.timedNS)))},
	}
}

// stamp identifies the machine and code behind a result.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Episodes   int     `json:"episodes"`
	Batches    int     `json:"batches"`
	PerEpisode int     `json:"batches_per_episode"`
	BatchOps   int     `json:"batch_ops"`
	P99Used    float64 `json:"p99_percentile_used"`
	Spans      int     `json:"spans"`
	Digest     string  `json:"digest"`
	// DigestRecorded is false for a seed digests.json does not hold:
	// its episodes were checked against each other only.
	DigestRecorded bool `json:"digest_recorded"`
}

type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]jsonMeta `json:"metrics"`
}

type jsonMeta struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: sync-pool, echo-parked, fleet-dc, or all")
		seed         = flag.Int64("seed", 1, "input seed")
		seconds      = flag.Float64("seconds", 10, "host seconds of timed work per run")
		traceFlag    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		outDir       = flag.String("out", ".bench_build/perfbench-out", "directory for result stamps and trace files")
		record       = flag.String("record", "", "merge this run's digest into the given digests.json")
	)
	flag.Parse()
	var run []spec
	if *workloadName == "all" {
		run = specs
	} else if sp, ok := specByName(*workloadName); ok {
		run = []spec{sp}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec, err := loadDigests()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	machine := machineStamp()
	out := result{Correct: true, Metrics: map[string]jsonMeta{}}
	for _, sp := range run {
		st := machine
		st.Workload, st.Seed, st.Seconds, st.Trace, st.BatchOps = sp.name, *seed, *seconds, *traceFlag == 1, sp.batchOps
		r := report(sp, st, rec, *outDir, *record)
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(run) > 1 {
				k = sp.name + "." + k
			}
			out.Metrics[k] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// report runs one workload, prints its table and stamp, writes its
// files, and returns its contract result.
func report(sp spec, st stamp, rec recordedDigests, outDir, record string) result {
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", sp.name, st.Seed, st.Seconds, st.Trace)
	fmt.Printf("  why: %s\n", sp.why)
	fmt.Printf("  machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		st.CPU, st.NProc, st.GOMAXPROCS, st.GoVersion, st.Commit)
	res := runWorkload(sp, st.Seed, st.Seconds, st.Trace)
	names := make([]string, 0, len(res.probes))
	for k := range res.probes {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  probe %-18s %9.4f vus/op\n", k, res.probes[k])
	}

	all := append(append([]*episodeResult(nil), res.episodes...), res.traced...)
	var digests []string
	for _, e := range all {
		digests = append(digests, e.digest)
	}
	// Traced runs use smaller episodes, whose digests are recorded apart.
	key := sp.name
	if st.Trace {
		key += ".traced"
	}
	if res.err == nil {
		st.DigestRecorded, res.err = checkDigests(rec, key, st.Seed, digests)
		if res.err == nil && !st.DigestRecorded {
			fmt.Fprintf(os.Stderr, "perfbench: warning: no digest recorded for %s seed %d; episodes checked against each other only\n", key, st.Seed)
			fmt.Printf("  WARNING: no digest recorded for %s seed %d; episodes checked against each other only\n", key, st.Seed)
		}
	}
	t := sum(all)
	r := result{Correct: res.err == nil, Attempted: max(t.ops+t.failed, 1), Failed: t.failed, Metrics: map[string]jsonMeta{}}
	if !r.Correct {
		fmt.Printf("  CHECK FAILED: %v\n", res.err)
		r.Failed = r.Attempted
	}
	if len(digests) > 0 {
		st.Digest = digests[0]
	}
	st.Episodes = len(all)

	var ms []metric
	if len(res.episodes) > 0 && !st.Trace {
		e2e, tail := endToEnd(res)
		st.Batches, st.PerEpisode, st.P99Used = tail.batches, tail.perEpisode, tail.used
		ms = e2e
		fmt.Printf("  episodes=%d batches=%d of %d ops (%d per episode); op_ns_p99 is the median episode's p%.2f\n",
			len(res.episodes), tail.batches, sp.batchOps, tail.perEpisode, tail.used)
		fmt.Printf("  ops/s by episode:")
		for _, e := range res.episodes {
			fmt.Printf(" %.0f", ratio(float64(e.ops), float64(e.timedNS)/1e9))
		}
		fmt.Println()
	}
	if st.Trace && res.layers != nil && len(res.traced) > 0 {
		ms = perLayer(res)
		st.Spans = res.layers.spans
		writeTraceFiles(sp, st, res, outDir)
	}
	fmt.Printf("  %-32s %16s %s\n", "metric", "value", "unit")
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("  %-32s %16.6g %s\n", m.name, v, m.unit)
		r.Metrics[m.name] = jsonMeta{Value: v, Unit: m.unit}
	}
	fmt.Printf("  %-32s %16.6g %s\n", "failed_ops", ratio(float64(r.Failed), float64(r.Attempted)), "ratio")
	fmt.Printf("  digest %s (%d episodes, recorded=%v)\n", st.Digest, st.Episodes, st.DigestRecorded)

	writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", sp.name, st.Seed, b2i(st.Trace))),
		map[string]any{"stamp": st, "result": r})
	if record != "" && r.Correct {
		if err := recordDigest(record, key, st.Seed, st.Digest); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
		}
	}
	return r
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeTraceFiles(sp spec, st stamp, res *runResult, outDir string) {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", sp.name, st.Seed))
	table := res.layers.table()
	fmt.Print(indent(table))
	if err := os.WriteFile(base+"-layers.txt", []byte(table), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if err := writeChromeTrace(base+"-spans.json", res.spans, sp.hosts); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	fmt.Printf("  trace: %s-spans.json (%d spans of the first traced episode), %s-layers.txt\n", base, len(res.spans), base)
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(strings.TrimSuffix(s, "\n"), "\n", "\n  ") + "\n"
}

func writeJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// recordDigest merges one digest into a digests.json file.
func recordDigest(path, workload string, seed int64, digest string) error {
	d := recordedDigests{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &d); err != nil {
			return err
		}
	}
	if d[workload] == nil {
		d[workload] = map[string]string{}
	}
	d[workload][fmt.Sprint(seed)] = digest
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func machineStamp() stamp {
	return stamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit("."),
	}
}
