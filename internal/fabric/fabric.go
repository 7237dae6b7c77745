// Package fabric runs a virtual datacenter: N simulated hosts — each a
// complete library-threads process with its own unixkern kernel, fd
// shards, and TCP-like socket stack — joined by a latency/loss/partition
// modeled network and advanced along ONE causally-consistent virtual
// timeline. The turn rule mirrors the SMP executor's min-(clock, ID)
// discipline one level up: of all parked hosts, the one with the
// smallest (clock, hostID) runs next, and it runs alone — the entire
// fleet executes on one driver goroutine, so every run is a
// deterministic function of (configuration, seed, fault script).
//
// The synchronization protocol is conservative parallel discrete-event
// simulation. Each host's clock carries a Governor (internal/vtime) that
// parks the host whenever it wants to advance beyond its lease. A grant
// is decided only when every live host is parked, so exactly one host
// runs at any instant and the coordinator may freely inspect the parked
// hosts' clocks. The picked host (smallest clock, host ID as tiebreak)
// receives
//
//	grant = min(want, pending(h), lease(h))
//	lease(h) = max( min over other live x of clock(x) + Delay,
//	                E + Delay )   where E = min over live x of
//	                              min(want(x), pending(x))
//
// pending(x) being the earliest event already scheduled on x's wheel —
// cross-host sends materialize on the receiver's wheel at send time, so
// "in flight" messages are always visible there. The first lease term is
// sound by clock monotonicity alone: a message from x departs no earlier
// than clock(x) and arrives no earlier than clock(x)+Delay. The second
// is the fleet fast-forward: while all hosts are parked, none can act —
// send, fire a timer, finish a charge — before E, so no NEW arrival can
// land anywhere before E+Delay, and the fleet skips idle gaps in one
// grant instead of leapfrogging Delay at a time. The grant clamps to the
// host's own pending event so arrivals are processed at their true
// instants; when E is Infinity, no thread anywhere is runnable and no
// event is pending anywhere — a fleet-wide deadlock, reported with every
// blocked thread on every host.
//
// A grant that falls short of the host's ask settles on its parked clock
// (vtime.Clock.Settle): the clock moves to the grant and re-asks in
// place, as it would on resuming with nothing run, and the coordinator
// records the re-ask as the host's park. A host resumes only when its
// ask ends, so most turns of an idle fleet switch no host at all; every
// turn still makes the full decision, so the grant stream is the same.
//
// Fault injection is scripted and deterministic: per-direction link loss
// (lost data segments redeliver one RTO later), one-way partitions
// (segments held to the healing instant, or dropped forever), and host
// pauses (the clock jumps over the window at grant time; work and
// timers due inside it complete late, while the other hosts free-run
// ahead — exactly the "frozen process" a SIGSTOP'd replica exhibits).
package fabric

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"pthreads/internal/core"
	"pthreads/internal/io"
	"pthreads/internal/net"
	"pthreads/internal/obs"
	"pthreads/internal/trace"
	"pthreads/internal/vtime"
)

// HostSpec declares one simulated host.
type HostSpec struct {
	// Name identifies the host in addresses ("name:addr"), traces, and
	// fault scripts. Must be unique and contain no ':'.
	Name string
	// Cfg is the host's thread-system configuration. Tracer, Explorer
	// and ExternalEvents are managed by the fabric.
	Cfg core.Config
	// Body runs as the host's main thread. A non-nil error brings the
	// whole fleet down.
	Body func(h *Host) error
}

// LinkLoss drops data segments on the From->To direction with the given
// probability; each lost transmission is retried one RTO later (the
// segment eventually arrives unless a permanent partition swallows it).
type LinkLoss struct {
	From, To string
	Rate     float64
}

// LinkPartition blackholes the From->To direction for [Start, End):
// segments departing into the window are held and delivered at End.
// End == vtime.Infinity drops them forever (the classic one-way
// partition: timeouts, not errors).
type LinkPartition struct {
	From, To   string
	Start, End vtime.Time
}

// HostPause freezes a host for [From, To) of fleet time: its clock jumps
// over the window at the first grant that crosses it, so everything the
// host would have done inside the window happens late by the window's
// width while the rest of the fleet runs ahead.
type HostPause struct {
	Host     string
	From, To vtime.Time
}

// Config parameterizes a fleet.
type Config struct {
	Hosts []HostSpec
	// Net configures every host's socket stack.
	Net net.Config
	// Delay is the one-way cross-host wire latency (default 50µs). It
	// is also the conservative lookahead of the turn rule, so it must
	// be positive.
	Delay vtime.Duration
	// RTO is the redelivery delay for lost data segments (default
	// 4×Delay).
	RTO vtime.Duration
	// Seed drives the per-wire loss PRNGs.
	Seed int64
	// Loss, Partitions, Pauses are the fault script.
	Loss       []LinkLoss
	Partitions []LinkPartition
	Pauses     []HostPause
	// Drain names the hosts whose completion ends the fleet (the rest
	// are torn down); empty means run until every host completes.
	Drain []string
	// Trace attaches a per-host trace recorder to every host.
	Trace bool
	// Obs configures the fleet observability plane (spans, rollups,
	// watchdogs — see obs.go). The zero value disables it entirely.
	Obs ObsConfig

	// explorer, when non-nil, wires a schedule-exploration controller
	// into every host (see explore.go; fabric-internal).
	explorer *fleetCtl
}

// Host is one simulated machine of the fleet.
type Host struct {
	ID   int
	Name string
	Sys  *core.System
	IO   *io.IO

	f    *Fabric
	spec HostSpec
	rec  *trace.Recorder

	// Coordinator-side view (touched only while the host is parked or
	// before it starts). A parked host asked to advance from now to
	// want; grant and lease are the coordinator's answer, which its
	// Grant returns when the host resumes. eff caches the earliest
	// instant the host can act (see refresh).
	now, want    vtime.Time
	grant, lease vtime.Time
	eff          vtime.Time
	started      bool
	done         bool
	pauses       []HostPause
	pauseIdx     int
	bodyErr      error
}

// TraceEvents returns the host's recorded trace (Config.Trace only).
func (h *Host) TraceEvents() []core.TraceEvent {
	if h.rec == nil {
		return nil
	}
	return h.rec.Events
}

// hostGov adapts the coordinator protocol to vtime.Governor: every ask
// records the host's park and suspends its System back to the fleet
// driver. The driver settles partial grants on the parked clock and
// resumes the host with the grant that ends its ask.
type hostGov struct{ h *Host }

func (g *hostGov) Grant(now, want vtime.Time) (vtime.Time, vtime.Time) {
	h := g.h
	h.now, h.want = now, want
	h.Sys.Suspend()
	return h.grant, h.lease
}

// Fabric is the coordinator of one fleet run.
type Fabric struct {
	cfg    Config
	hosts  []*Host
	byName map[string]*Host
	wires  map[[2]int]*wire

	nLive  int
	err    error
	fp     uint64 // FNV-1a over the grant/done stream
	grants int    // coordinator grants so far
	flows  uint64
	ran    bool
	obs    *fleetObs // observability plane; nil when disabled
}

// New builds a fleet. Host bodies do not start until Run.
func New(cfg Config) (*Fabric, error) {
	if len(cfg.Hosts) == 0 {
		return nil, errors.New("fabric: no hosts")
	}
	if cfg.Delay == 0 {
		cfg.Delay = 50 * vtime.Microsecond
	}
	if cfg.Delay <= 0 {
		return nil, errors.New("fabric: Delay must be positive")
	}
	if cfg.RTO == 0 {
		cfg.RTO = 4 * cfg.Delay
	}
	f := &Fabric{
		cfg:    cfg,
		byName: make(map[string]*Host),
		wires:  make(map[[2]int]*wire),
		fp:     fnvOffset,
	}
	if cfg.Obs.enabled() {
		f.obs = newFleetObs(cfg.Obs, len(cfg.Hosts))
	}
	for i, spec := range cfg.Hosts {
		if strings.Contains(spec.Name, ":") || spec.Name == "" {
			return nil, fmt.Errorf("fabric: bad host name %q", spec.Name)
		}
		if _, dup := f.byName[spec.Name]; dup {
			return nil, fmt.Errorf("fabric: duplicate host %q", spec.Name)
		}
		h := &Host{ID: i, Name: spec.Name, f: f, spec: spec}
		hcfg := spec.Cfg
		hcfg.ExternalEvents = true
		if cfg.Trace {
			h.rec = trace.New()
			hcfg.Tracer = h.rec
		}
		if cfg.explorer != nil {
			hcfg.Explorer = cfg.explorer.forHost(i)
		}
		var spanRec *obs.Recorder
		if f.obs != nil && cfg.Obs.Spans {
			spanRec = obs.NewRecorder(i)
			f.obs.recs = append(f.obs.recs, spanRec)
			hcfg.Spans = spanRec
		}
		h.Sys = core.New(hcfg)
		h.IO = io.New(h.Sys, cfg.Net)
		h.IO.Stack().SetRouter(&hostRouter{h: h})
		h.Sys.Clock().SetGovernor(&hostGov{h: h})
		if spanRec != nil {
			h.IO.SetSpans(spanRec)
		}
		f.hosts = append(f.hosts, h)
		f.byName[spec.Name] = h
	}
	for _, p := range cfg.Pauses {
		h := f.byName[p.Host]
		if h == nil {
			return nil, fmt.Errorf("fabric: pause names unknown host %q", p.Host)
		}
		if p.To <= p.From {
			return nil, fmt.Errorf("fabric: empty pause window on %q", p.Host)
		}
		h.pauses = append(h.pauses, p)
	}
	for _, h := range f.hosts {
		sort.Slice(h.pauses, func(a, b int) bool { return h.pauses[a].From < h.pauses[b].From })
	}
	for _, d := range cfg.Drain {
		if f.byName[d] == nil {
			return nil, fmt.Errorf("fabric: drain names unknown host %q", d)
		}
	}
	// One wire per ordered host pair, lazily realized here so the loss
	// PRNG seeds and partition windows are fixed up front.
	for i := range f.hosts {
		for j := range f.hosts {
			if i == j {
				continue
			}
			w := &wire{
				delay: cfg.Delay,
				rto:   cfg.RTO,
				prng:  mixSeed(uint64(cfg.Seed), uint64(i), uint64(j)),
				src:   i,
				dst:   j,
				obs:   f.obs,
			}
			for _, l := range cfg.Loss {
				if l.From == f.hosts[i].Name && l.To == f.hosts[j].Name {
					w.lossRate = l.Rate
				}
			}
			for _, p := range cfg.Partitions {
				if p.From == f.hosts[i].Name && p.To == f.hosts[j].Name {
					w.parts = append(w.parts, partWindow{from: p.Start, to: p.End})
				}
			}
			sort.Slice(w.parts, func(a, b int) bool { return w.parts[a].from < w.parts[b].from })
			f.wires[[2]int{i, j}] = w
		}
	}
	return f, nil
}

// Host returns a host by name (nil if unknown).
func (f *Fabric) Host(name string) *Host { return f.byName[name] }

// Hosts returns the fleet's hosts in ID order.
func (f *Fabric) Hosts() []*Host { return f.hosts }

// Fingerprint returns the schedule fingerprint accumulated over every
// coordinator decision of the run: two runs of the same fleet are
// equivalent iff their fingerprints (and per-host traces) match.
func (f *Fabric) Fingerprint() string { return fmt.Sprintf("%016x", f.fp) }

// Run executes the fleet to completion and returns the first error (a
// host body failure, or a fleet-wide deadlock). It may be called once.
func (f *Fabric) Run() error {
	if f.ran {
		return errors.New("fabric: Run called twice")
	}
	f.ran = true
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.drive()
	}()
	<-done
	return f.err
}

// drive is the fleet driver: the coordinator loop and, in place, every
// host's System driver loop, all on one goroutine. Each turn grants the
// picked host. A grant that falls short of its ask settles on the parked
// clock, which re-asks in place with nothing run, so the turn ends
// without resuming the host; otherwise the host resumes until its
// governor suspends it (it parks again) or it completes — two coroutine
// switches and no trip through the Go scheduler. The teardown is
// deferred: a thread body's runtime.Goexit, re-raised out of its host's
// Drive, ends the fleet with that host's diagnosis.
func (f *Fabric) drive() {
	var cur *Host // the host being resumed
	defer func() {
		if cur != nil {
			f.complete(cur)
		}
		f.killAll()
	}()
	// Start rendezvous: every host begins parked at now = want = 0, so
	// host bodies execute strictly one at a time from the very first
	// instant (the first grant starts the host; its values are not
	// applied to the clock). Between turns every live host is parked.
	f.nLive = len(f.hosts)
	f.refresh()
	for {
		e := f.fleetNext()
		if e == vtime.Infinity {
			f.err = errors.New(f.deadlockReport())
			return
		}
		if f.obs != nil {
			f.obs.sampleAt(f, e)
			f.obs.checkWaitCycle(f)
		}
		h := f.pick()
		h.grant, h.lease = f.grantFor(h, e)
		f.mix(uint64(h.ID), uint64(h.want), uint64(h.grant))
		f.grants++
		if f.obs != nil {
			f.obs.onGrant(f, h, h.grant)
		}
		if h.started {
			if limit, more := h.Sys.Clock().Settle(h.grant, h.lease); more {
				// The re-ask touches no wheel: only h's view moves.
				h.now, h.want = h.grant, limit
				if f.obs != nil {
					f.obs.onPark(h, h.now)
				}
				h.refresh()
				continue
			}
		}
		cur = h
		ended := h.resume()
		cur = nil
		// The turn may have landed arrivals on any host's wheel.
		f.refresh()
		if !ended {
			if f.obs != nil {
				f.obs.onPark(h, h.now)
			}
			continue
		}
		if f.complete(h) {
			return
		}
	}
}

// resume runs h until it parks again (false) or completes (true). The
// first grant starts the host: its body becomes the main thread of its
// System.
func (h *Host) resume() bool {
	if !h.started {
		h.started = true
		// Start fails only when called twice, and a host starts once.
		_ = h.Sys.Start(func() {
			if e := h.spec.Body(h); e != nil {
				h.bodyErr = e
			}
		})
	}
	return h.Sys.Drive()
}

// complete records h's completion and reports whether it ends the fleet:
// an error, the drain set done, or no host left.
func (f *Fabric) complete(h *Host) bool {
	h.done = true
	f.nLive--
	f.mix(uint64(h.ID), doneMark, 0)
	err := h.Sys.Err()
	if err == nil {
		err = h.bodyErr
	}
	if err != nil && f.err == nil {
		f.err = fmt.Errorf("host %s: %w", h.Name, err)
	}
	return f.err != nil || f.drained() || f.nLive == 0
}

// pick selects the live host with the smallest (clock, ID); between
// turns every live host is parked.
func (f *Fabric) pick() *Host {
	var best *Host
	for _, h := range f.hosts {
		if h.done {
			continue
		}
		if best == nil || h.now < best.now {
			best = h
		}
	}
	return best
}

// refresh caches in h.eff the earliest instant host h can possibly act:
// the target of its parked ask, lowered by any event already scheduled
// on its wheel (including arrivals other hosts landed after it parked —
// the parked ask cannot know about those). Only a host's own turn moves
// its ask, and only a resumed host lands arrivals, so the cache holds
// between those. Safe to call only while h is parked.
func (h *Host) refresh() {
	h.eff = h.want
	if at, ok := h.Sys.Clock().NextExpiry(); ok && at < h.eff {
		h.eff = at
	}
}

// refresh re-caches every live host's eff.
func (f *Fabric) refresh() {
	for _, h := range f.hosts {
		if !h.done {
			h.refresh()
		}
	}
}

// fleetNext returns E, the earliest instant anything can happen anywhere
// in the fleet. Infinity means fleet-wide deadlock. Called with every
// live host parked.
func (f *Fabric) fleetNext() vtime.Time {
	e := vtime.Infinity
	for _, h := range f.hosts {
		if !h.done && h.eff < e {
			e = h.eff
		}
	}
	return e
}

// grantFor computes the granted frontier and lease for h, applying any
// pause window the grant crosses. e is the fleet-wide next-action bound
// from fleetNext.
func (f *Fabric) grantFor(h *Host, e vtime.Time) (grant, lease vtime.Time) {
	lease = vtime.Infinity
	for _, x := range f.hosts {
		if x == h || x.done {
			continue
		}
		if l := satAdd(x.now, f.cfg.Delay); l < lease {
			lease = l
		}
	}
	// Fleet fast-forward: no host acts before e, so no new arrival can
	// land anywhere before e+Delay.
	if eb := satAdd(e, f.cfg.Delay); eb > lease {
		lease = eb
	}
	if lease == vtime.Infinity {
		// Keep the lease finite so an idle host still asks (and the
		// fleet can detect deadlock) instead of free-running to the end
		// of time. Only reachable with a single live host.
		lease = vtime.Infinity - 1
	}
	grant = h.want
	if lease < grant {
		grant = lease
	}
	// Clamp to the host's own earliest pending event so arrivals are
	// processed at their true instants, not wherever the lease happens
	// to lie. An already-due event (at <= now — possible when an arrival
	// raced the park at the same instant, or after a pause jump) cannot
	// clamp: grants must move the clock, and the host polls it on wake.
	if at, ok := h.Sys.Clock().NextExpiry(); ok && at > h.now && at < grant {
		grant = at
	}
	// Pause windows: a grant crossing a window's start jumps over it —
	// the host is frozen for the width of the window, so whatever it
	// was about to do completes that much later.
	for h.pauseIdx < len(h.pauses) {
		w := h.pauses[h.pauseIdx]
		from := w.From
		if h.now > from {
			from = h.now
		}
		if w.To <= from {
			h.pauseIdx++
			continue
		}
		if grant <= from {
			break
		}
		grant = satAdd(grant, vtime.Duration(w.To-from))
		h.pauseIdx++
	}
	if lease < grant {
		lease = grant
	}
	return grant, lease
}

func (f *Fabric) deadlockReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet deadlock: all %d live hosts idle with nothing pending\n", f.nLive)
	for _, h := range f.hosts {
		if h.done {
			continue
		}
		fmt.Fprintf(&b, "host %s: %s", h.Name, h.Sys.BlockedReport())
	}
	return b.String()
}

// drained reports whether every host named in Drain has completed.
func (f *Fabric) drained() bool {
	if len(f.cfg.Drain) == 0 {
		return false
	}
	for _, d := range f.cfg.Drain {
		if !f.byName[d].done {
			return false
		}
	}
	return true
}

// killAll tears down every live host: Stop records the reason, and one
// more Drive of a started host stops its execution contexts, unwinding
// the thread suspended in Grant. No goroutine of the fleet outlives it.
func (f *Fabric) killAll() {
	reason := f.err
	if reason == nil {
		reason = errors.New("fabric: fleet drained")
	}
	for _, h := range f.hosts {
		if h.done {
			continue
		}
		h.Sys.Stop(reason)
		if h.started {
			h.Sys.Drive()
		}
		h.done = true
	}
	if f.obs != nil {
		f.obs.teardown(f)
	}
}

// FNV-1a over the coordinator's decision stream.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	doneMark  = 0x646f6e65 // "done"
)

func (f *Fabric) mix(words ...uint64) {
	for _, w := range words {
		for i := 0; i < 8; i++ {
			f.fp ^= w & 0xff
			f.fp *= fnvPrime
			w >>= 8
		}
	}
}

func mixSeed(words ...uint64) uint64 {
	h := uint64(fnvOffset)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime
			w >>= 8
		}
	}
	if h == 0 {
		h = fnvOffset
	}
	return h
}

func satAdd(t vtime.Time, d vtime.Duration) vtime.Time {
	if d < 0 {
		panic("fabric: negative duration")
	}
	if t > vtime.Infinity-vtime.Time(d) {
		return vtime.Infinity
	}
	return t.Add(d)
}
