package fabric

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// The grant stream of two fleets, pinned: the fingerprint over every
// coordinator decision and each host's final clock. Any change to the
// turn protocol that moves a grant fails here.
func TestFleetGrantStreamPinned(t *testing.T) {
	check := func(name string, f *Fabric, fp string, clocks map[string]vtime.Time) {
		t.Helper()
		if got := f.Fingerprint(); got != fp {
			t.Errorf("%s: fingerprint %s, want %s", name, got, fp)
		}
		for _, h := range f.Hosts() {
			if got, want := h.Sys.Clock().Now(), clocks[h.Name]; got != want {
				t.Errorf("%s: host %s clock %d, want %d", name, h.Name, int64(got), int64(want))
			}
		}
	}

	// TestFleetDeterminism's two-host scenario: loss on srv->cli and a
	// srv pause.
	f, _ := echoFleet(t, func(c *Config) {
		c.Trace = true
		c.Loss = []LinkLoss{{From: "srv", To: "cli", Rate: 0.2}}
		c.Pauses = []HostPause{{Host: "srv", From: 100 * 1000, To: 400 * 1000}}
	})
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	check("echo", f, "36e7d254bcbb8400", map[string]vtime.Time{"srv": 1324300, "cli": 1955300})

	// Three hosts: two lossy client links into one paused server.
	cfg, verdict := FleetEchoScenario(2, 256).Make()
	g, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = g.Run()
	if msg := verdict(g, err); msg != "" {
		t.Fatalf("fleet-echo: %s", msg)
	}
	check("fleet-echo", g, "ac1128cafdebae4b", map[string]vtime.Time{"srv": 2370100, "c0": 2288900, "c1": 2414500})

	// The same three hosts with every observer on: spans, rollups, and
	// watchdogs tight enough that the server pause trips them. The
	// coordinator's per-host grant counts, worst lag and longest turn
	// are pinned with the findings, so a grant settled in place must
	// account exactly as a host that resumes and parks back.
	cfg, verdict = FleetEchoScenario(2, 256).Make()
	cfg.Obs = ObsConfig{
		Spans:           true,
		Rollup:          true,
		GrantStarvation: 300 * vtime.Microsecond,
		LeaseHold:       400 * vtime.Microsecond,
		WaitCycle:       true,
	}
	o, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = o.Run()
	if msg := verdict(o, err); msg != "" {
		t.Fatalf("fleet-echo with observers: %s", msg)
	}
	check("fleet-echo+obs", o, "ac1128cafdebae4b", map[string]vtime.Time{"srv": 2370100, "c0": 2288900, "c1": 2414500})
	rep := o.ObsReport()
	var got []string
	for i, gs := range rep.Grants {
		got = append(got, fmt.Sprintf("%s grants=%d lag=%d turn=%d", rep.Hosts[i], gs.Grants, int64(gs.MaxLag), int64(gs.MaxTurn)))
	}
	for _, fd := range rep.Findings {
		got = append(got, fmt.Sprintf("%s %s @%d: %s", fd.Kind, fd.Host, int64(fd.At), fd.Detail))
	}
	want := []string{
		"srv grants=22 lag=186000 turn=522000",
		"c0 grants=20 lag=522000 turn=522000",
		"c1 grants=19 lag=522000 turn=522000",
		"lease-hold srv @522000: one turn advanced the host by 522000 (threshold 400000)",
		"grant-starvation c0 @522000: clock 0 lags fleet max 522000 by 522000 (threshold 300000)",
		"lease-hold c0 @522000: one turn advanced the host by 522000 (threshold 400000)",
		"grant-starvation c1 @522000: clock 0 lags fleet max 522000 by 522000 (threshold 300000)",
		"lease-hold c1 @522000: one turn advanced the host by 522000 (threshold 400000)",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fleet-echo+obs report:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// checkTornDown asserts that a finished fleet left nothing running: no
// execution context on any host and no goroutine beyond the count taken
// before the fleet was built.
func checkTornDown(t *testing.T, f *Fabric, before int) {
	t.Helper()
	for _, h := range f.Hosts() {
		if n := h.Sys.Stats().RunnerLive; n != 0 {
			t.Errorf("host %s: %d contexts live after the fleet ended", h.Name, n)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before %d, after %d", before, after)
	}
}

// acceptForever parks a host body on a listener nobody dials.
func acceptForever(h *Host) error {
	l, err := h.IO.Listen("idle", 1)
	if err != nil {
		return err
	}
	_, err = l.Accept()
	return err
}

func TestGoexitOnHostEndsFleet(t *testing.T) {
	// A thread body on host 2 calls runtime.Goexit (what t.Fatal does)
	// while hosts 0 and 1 are started and parked. The Goexit unwinds the
	// fleet driver; Run must still return host 2's diagnosis.
	before := runtime.NumGoroutine()
	f, err := New(Config{Hosts: []HostSpec{
		{Name: "a", Body: acceptForever},
		{Name: "b", Body: acceptForever},
		{Name: "c", Body: func(h *Host) error {
			h.Sys.Compute(vtime.Millisecond)
			runtime.Goexit()
			return nil
		}},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "host c") || !strings.Contains(err.Error(), "runtime.Goexit") {
		t.Fatalf("want host c's Goexit diagnosis, got %v", err)
	}
	for _, name := range []string{"a", "b"} {
		if f.Host(name).Sys.Stats().ThreadsCreated == 0 {
			t.Errorf("host %s never started; the Goexit must interrupt a running fleet", name)
		}
	}
	checkTornDown(t, f, before)
}

func TestDrainUnwindsThreadsAskingForTime(t *testing.T) {
	// The drain host finishes while the other host is parked mid-Compute
	// in Grant: the teardown unwinds it there. A second thread on that
	// host, blocked forever, asks for time again as it unwinds; its
	// ask must unwind too instead of parking the dead host.
	before := runtime.NumGoroutine()
	var unwound any
	f, err := New(Config{
		Hosts: []HostSpec{
			{Name: "a", Body: func(h *Host) error {
				h.Sys.Compute(vtime.Millisecond)
				return nil
			}},
			{Name: "b", Body: func(h *Host) error {
				s := h.Sys
				m := s.MustMutex(core.MutexAttr{Name: "never"})
				cv := s.NewCond("never")
				attr := core.DefaultAttr()
				attr.Priority = s.Self().Priority() + 1
				s.Create(attr, func(any) any {
					defer func() {
						defer func() {
							unwound = recover()
							panic(unwound)
						}()
						s.Compute(vtime.Second)
					}()
					m.Lock()
					cv.Wait(m)
					return nil
				}, nil)
				for {
					s.Compute(vtime.Millisecond)
				}
			}},
		},
		Drain: []string{"a"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if now := f.Host("b").Sys.Now(); now == 0 {
		t.Errorf("host b never computed; the drain must interrupt it mid-Compute")
	}
	if msg, ok := unwound.(string); unwound == nil || ok {
		t.Errorf("blocked thread's ask at teardown: got %v, want the teardown unwind", msg)
	}
	checkTornDown(t, f, before)
}

func TestShutdownUnwindKeepsAskingForTime(t *testing.T) {
	// Host a shuts its process down; a deferred Compute runs as its main
	// thread unwinds and asks the fleet for time. The host stays parked
	// until granted and finishes that Compute: a suspended context
	// resumes even after its process has ended.
	f, err := New(Config{Hosts: []HostSpec{
		{Name: "a", Body: func(h *Host) error {
			defer h.Sys.Compute(10 * vtime.Millisecond)
			h.Sys.Compute(vtime.Millisecond)
			h.Sys.Shutdown(nil)
			return nil
		}},
		{Name: "b", Body: func(h *Host) error {
			h.Sys.Compute(100 * vtime.Millisecond)
			return nil
		}},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if now := f.Host("a").Sys.Now(); now < vtime.Time(11*vtime.Millisecond) {
		t.Fatalf("host a ended at %v; its unwinding Compute was cut short", now)
	}
}

// countingGov counts a host's asks on the way to its real governor:
// each ask parks the host, and every ask but one unwound at teardown
// returns at a resume.
type countingGov struct {
	vtime.Governor
	n *int
}

func (g countingGov) Grant(now, want vtime.Time) (vtime.Time, vtime.Time) {
	*g.n++
	return g.Governor.Grant(now, want)
}

// TestIdleHostSettlesInPlace: a host idling far ahead while another
// computes is granted every other turn, and each of those grants falls
// short of its ask — the coordinator settles them on the parked clock,
// so the idle host resumes only when its sleep ends.
func TestIdleHostSettlesInPlace(t *testing.T) {
	var asks [2]int
	f, err := New(Config{
		Hosts: []HostSpec{
			{Name: "a", Body: func(h *Host) error {
				for i := 0; i < 200; i++ {
					h.Sys.Compute(h.f.cfg.Delay)
				}
				return nil
			}},
			{Name: "b", Body: func(h *Host) error {
				h.Sys.Sleep(vtime.Second)
				return nil
			}},
		},
		Drain: []string{"a"},
		Obs:   ObsConfig{Rollup: true},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, h := range f.Hosts() {
		h.Sys.Clock().SetGovernor(countingGov{&hostGov{h: h}, &asks[i]})
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := f.ObsReport()
	var grants int64
	for _, g := range rep.Grants {
		grants += g.Grants
	}
	if grants != int64(f.grants) {
		t.Fatalf("ObsReport counts %d grants, the coordinator %d", grants, f.grants)
	}
	if b := rep.Grants[1].Grants; b < 50 || asks[1] > 2 {
		t.Fatalf("idle host b: %d grants, %d asks; want its grants settled in place", b, asks[1])
	}
	if resumes := asks[0] + asks[1]; resumes >= int(grants) {
		t.Fatalf("%d host resumes for %d grants; want fewer resumes", resumes, grants)
	}
}

// benchFleetTurns times b.N coordinator grants to a fleet of two hosts:
// host a computes Delay steps, host b runs body. Grants are counted at
// the coordinator: a wrapped host governor would count resumes.
func benchFleetTurns(b *testing.B, body func(h *Host) error) {
	b.ReportAllocs()
	f, err := New(Config{
		Hosts: []HostSpec{
			{Name: "a", Body: func(h *Host) error {
				d := h.f.cfg.Delay
				// Time from here, once both hosts have started, so
				// their set-up stays out of ns/op and allocs/op.
				h.Sys.Compute(d)
				b.ResetTimer()
				for start := h.f.grants; h.f.grants-start < b.N; {
					h.Sys.Compute(d)
				}
				b.StopTimer()
				return nil
			}},
			{Name: "b", Body: body},
		},
		Drain: []string{"a"},
	})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	if err := f.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
}

// BenchmarkFleetTurn measures one fleet turn: two hosts that only
// compute leapfrog grants one Delay apart, and each op is one grant —
// the coordinator's decision, the switch into the host, and the host's
// park back.
func BenchmarkFleetTurn(b *testing.B) {
	benchFleetTurns(b, func(h *Host) error {
		for {
			h.Sys.Compute(h.f.cfg.Delay)
		}
	})
}

// BenchmarkFleetIdleTurn measures a turn that settles in place: host b
// sleeps far ahead while host a computes, so every grant to b falls
// short of its ask and settles on its parked clock, and only a's grants
// resume a host.
func BenchmarkFleetIdleTurn(b *testing.B) {
	benchFleetTurns(b, func(h *Host) error {
		h.Sys.Sleep(vtime.Duration(vtime.Infinity / 2))
		return nil
	})
}
