package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/net"
)

func TestPlantedDigestMismatchFails(t *testing.T) {
	rec := recordedDigests{"sync-pool": {"1": "aaa"}}
	if recorded, err := checkDigests(rec, "sync-pool", 1, []string{"aaa", "aaa"}); err != nil || !recorded {
		t.Fatalf("matching recorded digests: recorded=%v err=%v", recorded, err)
	}
	if recorded, err := checkDigests(rec, "sync-pool", 2, []string{"bbb"}); err != nil || recorded {
		t.Fatalf("an unrecorded seed with consistent episodes: recorded=%v err=%v", recorded, err)
	}
	if _, err := checkDigests(rec, "sync-pool", 1, []string{"aab"}); err == nil {
		t.Error("a digest differing from the recorded one passed")
	}
	if _, err := checkDigests(rec, "sync-pool", 2, []string{"bbb", "bbc"}); err == nil {
		t.Error("episodes with different digests passed")
	}
	if _, err := checkDigests(rec, "sync-pool", 2, nil); err == nil {
		t.Error("a run without digests passed")
	}
}

// Host-side Stats fields must not reach the digest: the library may
// change them without moving any virtual result.
func TestDigestIgnoresHostSideStats(t *testing.T) {
	var a core.Stats
	a.ContextSwitches, a.FDWaits = 7, 3
	b := a
	b.ReadyMaxDepth, b.ReadyWraps, b.ReadyGrows = 1, 2, 3
	b.ContThreads, b.ContParked, b.RunnerBinds, b.RunnerLive, b.RunnerPeak = 1, 2, 3, 4, 5
	b.ArenaChunks, b.ArenaSlotBytes = 6, 792
	if digestOf(virtualCore(a)) != digestOf(virtualCore(b)) {
		t.Error("a host-side Stats field moved the digest")
	}
	// Every field that virtualCore keeps does move it.
	va := reflect.ValueOf(&a).Elem()
	for i := range va.NumField() {
		name := va.Type().Field(i).Name
		if _, kept := reflect.TypeOf(coreVirtual{}).FieldByName(name); !kept {
			continue
		}
		c := a
		reflect.ValueOf(&c).Elem().Field(i).SetInt(va.Field(i).Int() + 1)
		if digestOf(virtualCore(a)) == digestOf(virtualCore(c)) {
			t.Errorf("virtual field %s did not move the digest", name)
		}
	}
	if digestOf(virtualNet(net.Stats{Segments: 1})) == digestOf(virtualNet(net.Stats{Segments: 2})) {
		t.Error("net.Stats.Segments did not move the digest")
	}
}

func TestDigestsFileParses(t *testing.T) {
	if _, err := loadDigests(); err != nil {
		t.Fatal(err)
	}
}

// The probes' reference values are the ones BENCH_host.json records.
func TestProbeReferencesMatchBenchHost(t *testing.T) {
	b, err := os.ReadFile("../BENCH_host.json")
	if err != nil {
		t.Skip("BENCH_host.json not present:", err)
	}
	var host struct {
		Benches []struct {
			Name    string             `json:"name"`
			Metrics map[string]float64 `json:"metrics"`
		} `json:"benches"`
		C10K struct {
			Points []struct {
				Scenario string  `json:"scenario"`
				Vus      float64 `json:"vus_per_op"`
			} `json:"points"`
		} `json:"c10k"`
	}
	if err := json.Unmarshal(b, &host); err != nil {
		t.Fatal(err)
	}
	recorded := map[string]float64{}
	for _, bench := range host.Benches {
		recorded[strings.TrimPrefix(bench.Name, "Benchmark")] = bench.Metrics["vus/op"]
	}
	for _, pt := range host.C10K.Points {
		if pt.Scenario == "echo" {
			recorded["echo"] = pt.Vus
		}
	}
	for _, p := range primitiveProbes {
		got, ok := recorded[p.name]
		if !ok {
			t.Errorf("%s: no vus/op in BENCH_host.json", p.name)
			continue
		}
		if math.Abs(got-p.want) >= p.tol {
			t.Errorf("%s: probe wants %v, BENCH_host.json records %v", p.name, p.want, got)
		}
	}
}

func TestPrimitiveProbes(t *testing.T) {
	if _, err := checkPrimitives(); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	ep := &episodeResult{ops: 1, timedNS: 1, latCounts: []uint64{1}, latBuckets: []float64{0, 1}, batches: seq(20)}
	res := &runResult{episodes: []*episodeResult{ep}, traced: []*episodeResult{ep}, layers: &layerStats{}}
	e2e, _ := endToEnd(res)
	check := func(kind string, declared []struct{ Name, Unit string }, got []metric) {
		if len(declared) != len(got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(got))
			return
		}
		for i, m := range got {
			if declared[i].Name != m.name || declared[i].Unit != m.unit {
				t.Errorf("%s %d: declared %s [%s], reported %s [%s]", kind, i, declared[i].Name, declared[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2e)
	check("per_layer", bj.PerLayer, perLayer(res))
	for i, w := range bj.Workloads {
		if i >= len(specs) || specs[i].name != w.Name {
			t.Errorf("workload %d: declared %s, not the benchmark's", i, w.Name)
		}
	}
}
