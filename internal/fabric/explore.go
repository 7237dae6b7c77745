// Fleet-wide schedule exploration: record/replay and bounded search
// across a whole virtual datacenter. The stable coordinate of one
// scheduling decision is (host, per-host switch-point ordinal) — the
// global interleaving of hosts is fixed by the fabric's deterministic
// turn rule, so forcing the same per-host decisions reproduces the same
// fleet run bit for bit. Tokens are the single-host format qualified by
// host: "f1:h0/12/1,h2/40/0".
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/explore"
)

// FleetDecision is one forced switch on one host: at the Index'th switch
// point host Host observes, preempt and dispatch the Pick'th ready
// thread.
type FleetDecision struct {
	Host  int
	Index int
	Pick  int
}

// FleetSchedule is the replayable token of one fleet interleaving.
type FleetSchedule struct {
	Decisions []FleetDecision
}

const fleetTokenPrefix = "f1:"

// Token renders the schedule, e.g. "f1:h0/12/1,h2/40/0".
func (s FleetSchedule) Token() string {
	var b strings.Builder
	b.WriteString(fleetTokenPrefix)
	for i, d := range s.Decisions {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "h%d/%d/%d", d.Host, d.Index, d.Pick)
	}
	return b.String()
}

// ParseFleetToken decodes a token produced by Token.
func ParseFleetToken(tok string) (FleetSchedule, error) {
	if !strings.HasPrefix(tok, fleetTokenPrefix) {
		return FleetSchedule{}, fmt.Errorf("fabric: fleet schedule token must start with %q", fleetTokenPrefix)
	}
	body := strings.TrimPrefix(tok, fleetTokenPrefix)
	if body == "" {
		return FleetSchedule{}, nil
	}
	var out FleetSchedule
	for _, part := range strings.Split(body, ",") {
		var h, i, p int
		if n, err := fmt.Sscanf(part, "h%d/%d/%d", &h, &i, &p); n != 3 || err != nil {
			return FleetSchedule{}, fmt.Errorf("fabric: malformed fleet decision %q (want hH/index/pick)", part)
		}
		if h < 0 || i < 0 || p < 0 {
			return FleetSchedule{}, fmt.Errorf("fabric: negative field in %q", part)
		}
		out.Decisions = append(out.Decisions, FleetDecision{Host: h, Index: i, Pick: p})
	}
	return out, nil
}

// FleetPointInfo is one switch point seen past the forced prefix.
type FleetPointInfo struct {
	Host   int
	Index  int
	Kind   core.SwitchPoint
	NReady int
}

// fleetCtl shares the decision log across every host's controller; the
// forced prefix is split per host (the per-host ordinal is the stable
// half of the coordinate) while the log accumulates in fleet execution
// order, which the deterministic turn rule makes reproducible.
type fleetCtl struct {
	perHost map[int][]FleetDecision
	log     []FleetDecision
	points  []FleetPointInfo
	ctls    []*hostCtl
}

func newFleetCtl(forced []FleetDecision) *fleetCtl {
	fc := &fleetCtl{perHost: make(map[int][]FleetDecision)}
	for _, d := range forced {
		fc.perHost[d.Host] = append(fc.perHost[d.Host], d)
	}
	return fc
}

// forHost mints the core.Explorer for one host.
func (fc *fleetCtl) forHost(host int) core.Explorer {
	hc := &hostCtl{fc: fc, host: host, forced: fc.perHost[host]}
	fc.ctls = append(fc.ctls, hc)
	return hc
}

// hostCtl is one host's view of the shared controller; it mirrors the
// single-host explore controller, with clamped picks on divergence.
type hostCtl struct {
	fc     *fleetCtl
	host   int
	forced []FleetDecision
	idx    int
	cursor int
}

func (hc *hostCtl) ChooseAt(point core.SwitchPoint, cur core.ThreadID, ready []core.ThreadID) (int, bool) {
	i := hc.idx
	hc.idx++
	if hc.cursor < len(hc.forced) {
		d := hc.forced[hc.cursor]
		if d.Index != i {
			return 0, false
		}
		hc.cursor++
		if len(ready) == 0 {
			return 0, false
		}
		pick := d.Pick
		if pick >= len(ready) {
			pick = len(ready) - 1
		}
		hc.fc.log = append(hc.fc.log, FleetDecision{Host: hc.host, Index: i, Pick: pick})
		return pick, true
	}
	hc.fc.points = append(hc.fc.points, FleetPointInfo{Host: hc.host, Index: i, Kind: point, NReady: len(ready)})
	return 0, false
}

// Scenario is a fleet workload the exploration engine can run
// repeatedly. Make builds a fresh fleet configuration and a check
// evaluated after the run ("" = clean).
type Scenario struct {
	Name string
	Desc string
	Make func() (Config, func(f *Fabric, runErr error) string)
}

// FleetOutcome is one scenario run's result.
type FleetOutcome struct {
	Failure     string
	RunErr      error
	Schedule    FleetSchedule
	Points      []FleetPointInfo
	Fingerprint string
	// TraceHash fingerprints every host's rendered trace plus the
	// schedule fingerprint; equal hashes mean byte-identical fleet runs.
	TraceHash string
	// PerHost holds each host's trace (ID order), HostNames its names,
	// HostEnds each host's final clock (virtual ns) — the instant that
	// closes any state interval still open in an export.
	PerHost   [][]core.TraceEvent
	HostNames []string
	HostEnds  []int64
	// Obs is the observability-plane report, nil unless the run was
	// made with RunFleetScheduleObs.
	Obs *ObsReport
}

// Races runs the fleet race checker over the outcome's traces.
func (o FleetOutcome) Races() []explore.Race {
	return explore.CheckFleetRaces(o.PerHost, o.HostNames)
}

// RunFleetSchedule executes the scenario once under a forced schedule
// (empty = the unperturbed run).
func RunFleetSchedule(sc Scenario, sched FleetSchedule) FleetOutcome {
	return RunFleetScheduleObs(sc, sched, ObsConfig{})
}

// RunFleetScheduleObs is RunFleetSchedule with the observability plane
// attached; oc's zero value reproduces RunFleetSchedule exactly (the
// plane never perturbs a schedule either way — that is its contract).
func RunFleetScheduleObs(sc Scenario, sched FleetSchedule, oc ObsConfig) FleetOutcome {
	cfg, check := sc.Make()
	ctl := newFleetCtl(sched.Decisions)
	cfg.explorer = ctl
	cfg.Trace = true
	cfg.Obs = oc
	f, err := New(cfg)
	if err != nil {
		return FleetOutcome{Failure: "bad fleet config: " + err.Error(), RunErr: err}
	}
	runErr := f.Run()
	h := sha256.New()
	out := FleetOutcome{
		RunErr:      runErr,
		Schedule:    FleetSchedule{Decisions: ctl.log},
		Points:      ctl.points,
		Fingerprint: f.Fingerprint(),
	}
	fmt.Fprintf(h, "fingerprint %s\n", f.Fingerprint())
	for _, host := range f.Hosts() {
		out.PerHost = append(out.PerHost, host.TraceEvents())
		out.HostNames = append(out.HostNames, host.Name)
		out.HostEnds = append(out.HostEnds, int64(host.Sys.Clock().Now()))
		fmt.Fprintf(h, "host %s\n", host.Name)
		for _, ev := range host.TraceEvents() {
			fmt.Fprintf(h, "%d %s %s %s %s %s\n", ev.At, ev.Kind, evThreadName(ev), ev.Obj, ev.Arg, ev.Detail)
		}
	}
	out.TraceHash = hex.EncodeToString(h.Sum(nil)[:8])
	out.Obs = f.ObsReport()
	out.Failure = check(f, runErr)
	return out
}

func evThreadName(ev core.TraceEvent) string {
	if ev.Thread == nil {
		return "-"
	}
	if n := ev.Thread.Name(); n != "" {
		return n
	}
	return "thread#" + strconv.Itoa(int(ev.Thread.ID()))
}

// FleetResult summarizes a fleet exploration.
type FleetResult struct {
	Found    bool
	Failure  string
	Schedule FleetSchedule
	Runs     int
}

// String renders the result in one line.
func (r FleetResult) String() string {
	if !r.Found {
		return fmt.Sprintf("fleet bounded: clean after %d runs", r.Runs)
	}
	return fmt.Sprintf("fleet bounded: FAILURE after %d runs: %s\n  schedule %s", r.Runs, r.Failure, r.Schedule.Token())
}

// ExploreFleetBounded is the CHESS-style bounded-preemption search over
// a whole fleet: each run replays a forced prefix and records the switch
// points seen past it on every host; the frontier extends with each
// (host, point, pick) alternative. Runs are sequential.
func ExploreFleetBounded(sc Scenario, o explore.Options) FleetResult {
	if o.MaxRuns <= 0 {
		o.MaxRuns = 500
	}
	if o.Bound <= 0 {
		o.Bound = 1
	}
	queue := [][]FleetDecision{nil}
	head := 0
	runs := 0
	for head < len(queue) && runs < o.MaxRuns {
		prefix := queue[head]
		queue[head] = nil
		head++
		runs++
		out := RunFleetSchedule(sc, FleetSchedule{Decisions: prefix})
		if out.Failure != "" {
			return FleetResult{Found: true, Failure: out.Failure, Schedule: out.Schedule, Runs: runs}
		}
		if len(prefix) >= o.Bound {
			continue
		}
		for _, pt := range out.Points {
			if pt.NReady == 0 {
				continue
			}
			if o.LockOnly && pt.Kind != core.PointLock {
				continue
			}
			for pick := 0; pick < pt.NReady; pick++ {
				ext := make([]FleetDecision, len(prefix), len(prefix)+1)
				ext = append(ext[:copy(ext, prefix)], FleetDecision{Host: pt.Host, Index: pt.Index, Pick: pick})
				queue = append(queue, ext)
			}
		}
	}
	return FleetResult{Runs: runs}
}
