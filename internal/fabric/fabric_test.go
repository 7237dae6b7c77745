package fabric

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"pthreads/internal/core"
	"pthreads/internal/vtime"
)

// echoFleet builds a two-host fleet: srv echoes one message back to cli.
func echoFleet(t *testing.T, mut func(*Config)) (*Fabric, *int) {
	t.Helper()
	got := new(int)
	cfg := Config{
		Hosts: []HostSpec{
			{Name: "srv", Body: func(h *Host) error {
				l, err := h.IO.Listen("echo", 4)
				if err != nil {
					return err
				}
				c, err := l.Accept()
				if err != nil {
					return err
				}
				n, err := c.Read(512)
				if err != nil {
					return err
				}
				if _, err := c.Write(n); err != nil {
					return err
				}
				return c.Close()
			}},
			{Name: "cli", Body: func(h *Host) error {
				c, err := h.IO.Dial("srv:echo")
				if err != nil {
					return err
				}
				if _, err := c.Write(256); err != nil {
					return err
				}
				for *got < 256 {
					n, err := c.Read(256)
					if err != nil {
						return err
					}
					*got += n
				}
				return c.Close()
			}},
		},
		Drain: []string{"cli"},
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return f, got
}

func TestTwoHostEcho(t *testing.T) {
	f, got := echoFleet(t, nil)
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != 256 {
		t.Fatalf("echoed %d bytes, want 256", *got)
	}
	// Both stacks saw traffic: the client's bytes went out its NIC, the
	// server's stats show the accept.
	cs := f.Host("cli").IO.Stack().Stats()
	ss := f.Host("srv").IO.Stack().Stats()
	if cs.Dials != 1 || ss.Accepted != 1 {
		t.Fatalf("dials=%d accepted=%d, want 1/1", cs.Dials, ss.Accepted)
	}
	if cs.BytesSent != 256 || ss.BytesSent != 256 {
		t.Fatalf("bytes cli=%d srv=%d, want 256/256", cs.BytesSent, ss.BytesSent)
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() (string, []core.TraceEvent, []core.TraceEvent) {
		f, _ := echoFleet(t, func(c *Config) {
			c.Trace = true
			c.Loss = []LinkLoss{{From: "srv", To: "cli", Rate: 0.2}}
			c.Pauses = []HostPause{{Host: "srv", From: 100 * 1000, To: 400 * 1000}}
		})
		if err := f.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return f.Fingerprint(), f.Host("srv").TraceEvents(), f.Host("cli").TraceEvents()
	}
	fp1, s1, c1 := run()
	fp2, s2, c2 := run()
	if fp1 != fp2 {
		t.Fatalf("fingerprints differ: %s vs %s", fp1, fp2)
	}
	for name, pair := range map[string][2][]core.TraceEvent{"srv": {s1, s2}, "cli": {c1, c2}} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d events", name, len(a), len(b))
		}
		for i := range a {
			if a[i].At != b[i].At || a[i].Kind != b[i].Kind || a[i].Obj != b[i].Obj || a[i].Arg != b[i].Arg {
				t.Fatalf("%s: event %d differs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

func TestFleetDeadlock(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := Config{
		Hosts: []HostSpec{
			{Name: "a", Body: func(h *Host) error {
				l, err := h.IO.Listen("x", 1)
				if err != nil {
					return err
				}
				_, err = l.Accept() // nobody ever dials: blocks forever
				return err
			}},
			{Name: "b", Body: func(h *Host) error {
				l, err := h.IO.Listen("y", 1)
				if err != nil {
					return err
				}
				_, err = l.Accept()
				return err
			}},
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "fleet deadlock") {
		t.Fatalf("want fleet deadlock, got %v", err)
	}
	if !strings.Contains(err.Error(), "host a") || !strings.Contains(err.Error(), "host b") {
		t.Fatalf("deadlock report misses a host: %v", err)
	}
	checkTornDown(t, f, before)
}

func TestDrainTearsDownServer(t *testing.T) {
	// The server accepts forever; Drain on the client ends the fleet.
	f, got := echoFleet(t, func(c *Config) {
		body := c.Hosts[0].Body
		c.Hosts[0].Body = func(h *Host) error {
			if err := body(h); err != nil {
				return err
			}
			// Keep the host alive waiting for a connection that never
			// comes; the drain must kill it without an error.
			l, err := h.IO.Listen("echo2", 1)
			if err != nil {
				return err
			}
			_, err = l.Accept()
			return err
		}
	})
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != 256 {
		t.Fatalf("echoed %d bytes, want 256", *got)
	}
}

func TestKillAllLeaksNoContext(t *testing.T) {
	// The drain kills the server while it holds execution contexts in
	// every state: bound to a blocked goroutine-backed thread, idle in
	// the pool, and none for a parked continuation thread. Every host's
	// Run must return with its contexts and driver gone.
	before := runtime.NumGoroutine()
	f, _ := echoFleet(t, func(c *Config) {
		body := c.Hosts[0].Body
		c.Hosts[0].Body = func(h *Host) error {
			if err := body(h); err != nil {
				return err
			}
			s := h.Sys
			m := s.MustMutex(core.MutexAttr{Name: "never"})
			cv := s.NewCond("never")
			attr := core.DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			s.Create(attr, func(any) any {
				m.Lock()
				cv.Wait(m)
				return nil
			}, nil)
			s.CreateCont(attr, func(k *core.Cont) {
				k.Lock(m, func(k *core.Cont) { k.CondWait(cv, m, func(*core.Cont) {}) })
			}, nil)
			attr.Priority = s.Self().Priority() - 1
			th, _ := s.Create(attr, func(any) any { return nil }, nil)
			s.Join(th)
			l, err := h.IO.Listen("echo2", 1)
			if err != nil {
				return err
			}
			_, err = l.Accept()
			return err
		}
	})
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkTornDown(t, f, before)
}

func TestHostBodyErrorFailsFleet(t *testing.T) {
	// Host a's body fails before host b's body runs: b is torn down
	// while its main thread's set-up still waits for its next grant.
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	bRan := false
	cfg := Config{
		Hosts: []HostSpec{
			{Name: "a", Body: func(h *Host) error { return boom }},
			{Name: "b", Body: func(h *Host) error {
				bRan = true
				l, err := h.IO.Listen("x", 1)
				if err != nil {
					return err
				}
				_, err = l.Accept()
				return err
			}},
		},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	err = f.Run()
	if err == nil || !strings.Contains(err.Error(), "host a") || !errors.Is(err, boom) {
		t.Fatalf("want wrapped boom from host a, got %v", err)
	}
	if bRan {
		t.Errorf("host b's body ran; host a must fail first")
	}
	checkTornDown(t, f, before)
}

func TestPauseShiftsWork(t *testing.T) {
	// Unpaused vs paused server: the client's completion time must shift
	// by at least the window width (the server freezes mid-exchange).
	finish := func(pause bool) vtime.Time {
		f, _ := echoFleet(t, func(c *Config) {
			if pause {
				c.Pauses = []HostPause{{Host: "srv", From: 100 * 1000, To: 2 * 1000 * 1000}}
			}
		})
		if err := f.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return f.Host("cli").Sys.Clock().Now()
	}
	base := finish(false)
	paused := finish(true)
	if paused < base.Add(vtime.Duration(1*1000*1000)) {
		t.Fatalf("pause did not delay the exchange: base %v, paused %v", base, paused)
	}
}

func TestPermanentPartitionTimesOut(t *testing.T) {
	var dialErr error
	cfg := Config{
		Hosts: []HostSpec{
			{Name: "srv", Body: func(h *Host) error {
				l, err := h.IO.Listen("echo", 4)
				if err != nil {
					return err
				}
				_, err = l.AcceptTimeout(50 * vtime.Millisecond)
				return nil // timeout expected: the SYN never arrives
			}},
			{Name: "cli", Body: func(h *Host) error {
				_, dialErr = h.IO.DialTimeout("srv:echo", 10*vtime.Millisecond)
				return nil
			}},
		},
		Partitions: []LinkPartition{{From: "cli", To: "srv", Start: 0, End: vtime.Infinity}},
		Drain:      []string{"cli", "srv"},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e, ok := core.AsErrno(dialErr); !ok || e != core.ETIMEDOUT {
		t.Fatalf("dial through permanent partition: got %v, want ETIMEDOUT", dialErr)
	}
}

func TestCrossHostRefused(t *testing.T) {
	var dialErr error
	cfg := Config{
		Hosts: []HostSpec{
			// The machine must be up for its kernel to refuse the SYN —
			// a host whose body has completed is down, and dialing a down
			// host hangs (timeout territory), exactly like real TCP. Park
			// the body on an unrelated listener; the drain tears it down.
			{Name: "srv", Body: func(h *Host) error {
				l, err := h.IO.Listen("other", 1)
				if err != nil {
					return err
				}
				_, err = l.Accept()
				return err
			}},
			{Name: "cli", Body: func(h *Host) error {
				_, dialErr = h.IO.Dial("srv:nope")
				return nil
			}},
		},
		Drain: []string{"cli"},
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := f.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if e, ok := core.AsErrno(dialErr); !ok || e != core.ECONNREFUSED {
		t.Fatalf("dial to missing remote listener: got %v, want ECONNREFUSED", dialErr)
	}
}

func TestLossDelaysButDelivers(t *testing.T) {
	// With heavy loss on the data path the echo still completes (RTO
	// redelivery), later than the clean run.
	finish := func(rate float64) vtime.Time {
		f, got := echoFleet(t, func(c *Config) {
			c.Seed = 42
			c.Loss = []LinkLoss{{From: "cli", To: "srv", Rate: rate}}
		})
		if err := f.Run(); err != nil {
			t.Fatalf("Run (rate %v): %v", rate, err)
		}
		if *got != 256 {
			t.Fatalf("echoed %d bytes, want 256", *got)
		}
		return f.Host("cli").Sys.Clock().Now()
	}
	clean := finish(0)
	lossy := finish(0.9)
	if lossy <= clean {
		t.Fatalf("loss did not delay delivery: clean %v, lossy %v", clean, lossy)
	}
}
