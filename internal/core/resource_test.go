package core

import (
	"runtime"
	"testing"
	"time"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Regression tests for the two resource bugs fixed alongside the
// parked-continuation work:
//
//  1. allocTCB eagerly allocated a host stack for lazily created threads,
//     so a thread that never ran still paid for a stack. The stack is now
//     deferred to first activation (ensureStack).
//  2. reclaim built each replacement pool TCB with a fresh 1-buffered
//     resume channel while the dead TCB kept its own alive, so create/join
//     churn accumulated channels (and any goroutine parked on one).

func TestLazyThreadDefersStack(t *testing.T) {
	s := New(Config{DisablePool: true}) // force the allocTCB miss path
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Lazy = true
		attr.Name = "lazy"
		th, err := s.Create(attr, func(any) any { return "ran" }, nil)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		if th.stack != nil {
			t.Errorf("lazy thread has a host stack before activation")
		}
		if th.stackSize == 0 {
			t.Errorf("lazy thread did not record its requested stack size")
		}
		if err := s.Activate(th); err != nil {
			t.Fatalf("Activate: %v", err)
		}
		if th.stack == nil {
			t.Errorf("activated thread has no host stack")
		}
		if v, _ := s.Join(th); v != "ran" {
			t.Errorf("join = %v", v)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestLazyThreadStackOnSignalDelivery(t *testing.T) {
	// Signal delivery to a StateNew thread pushes a fake call, which
	// needs the host stack; ensureStack must run before the push.
	s := New(Config{DisablePool: true})
	got := 0
	err := s.Run(func() {
		s.Sigaction(unixkern.SIGUSR1, func(sig unixkern.Signal, info *unixkern.SigInfo, sc *SigContext) {
			got++
		}, 0)
		attr := DefaultAttr()
		attr.Lazy = true
		attr.Name = "lazy"
		th, _ := s.Create(attr, func(any) any { return nil }, nil)
		if th.stack != nil {
			t.Fatalf("lazy thread has a stack before delivery")
		}
		if err := s.Kill(th, unixkern.SIGUSR1); err != nil {
			t.Fatalf("Kill: %v", err)
		}
		s.Join(th)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}
}

func TestLazyContThreadDefersStack(t *testing.T) {
	s := New(Config{DisablePool: true})
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Lazy = true
		attr.Name = "lazy"
		th, err := s.CreateCont(attr, func(k *Cont) { k.Ret = "ran" }, nil)
		if err != nil {
			t.Fatalf("CreateCont: %v", err)
		}
		if th.stack != nil {
			t.Errorf("lazy cont thread has a host stack before activation")
		}
		if v, _ := s.Join(th); v != "ran" { // join activates
			t.Errorf("join = %v", v)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestChurnLeaksNoGoroutines(t *testing.T) {
	// 10k create/join churn must return the host to its baseline
	// goroutine count: every execution context, bound or idle, ends
	// before Run returns.
	before := runtime.NumGoroutine()
	for _, cont := range []bool{false, true} {
		s := New(Config{})
		err := s.Run(func() {
			attr := DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			for i := 0; i < 10000; i++ {
				var th *Thread
				if cont {
					th, _ = s.CreateCont(attr, func(k *Cont) {
						k.Yield(func(k *Cont) {})
					}, nil)
				} else {
					th, _ = s.Create(attr, func(any) any {
						s.Yield()
						return nil
					}, nil)
				}
				if _, err := s.Join(th); err != nil {
					t.Fatalf("join %d: %v", i, err)
				}
			}
		})
		if err != nil {
			t.Fatalf("Run(cont=%v): %v", cont, err)
		}
	}
	// Give the ended coroutines a moment to be reaped.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked across churn: before %d, after %d", before, after)
	}
}

func TestCreateReusesExecutionContext(t *testing.T) {
	// A thread that exits hands its execution context to the idle pool,
	// and the next thread dispatched takes that same context instead of
	// creating another coroutine per churn round.
	s := New(Config{})
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		var first, second *execCtx
		th, _ := s.Create(attr, func(any) any { first = s.Self().ctx; return nil }, nil)
		s.Join(th)
		if first == nil || th.ctx != nil {
			t.Fatalf("thread ran on %p, holds %p after exit", first, th.ctx)
		}
		live := s.Stats().RunnerLive
		th2, _ := s.Create(attr, func(any) any { second = s.Self().ctx; return nil }, nil)
		s.Join(th2)
		if second != first {
			t.Errorf("next thread ran on a new context, not the released one")
		}
		if got := s.Stats().RunnerLive; got != live {
			t.Errorf("live contexts %d -> %d across one churn round", live, got)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := s.Stats(); st.RunnerLive != 0 {
		t.Errorf("%d contexts still live after Run returned", st.RunnerLive)
	}
}

// TestSleepManyParkedFootprint exercises a broad park/wake cycle through
// the timer path with continuations: many threads asleep at once, all
// represented without goroutines.
func TestSleepManyParkedFootprint(t *testing.T) {
	s := New(Config{})
	const n = 500
	err := s.Run(func() {
		attr := DefaultAttr()
		attr.Priority = s.Self().Priority() + 1
		var ths []*Thread
		for i := 0; i < n; i++ {
			// Long enough that no sleeper expires while the creation loop
			// itself advances the virtual clock.
			d := vtime.Second + vtime.Duration(i%7)*vtime.Millisecond
			th, _ := s.CreateCont(attr, func(k *Cont) {
				k.Sleep(d, func(k *Cont) {})
			}, nil)
			ths = append(ths, th)
		}
		if st := s.Stats(); st.ContParked != n {
			t.Errorf("ContParked = %d, want %d", st.ContParked, n)
		}
		for _, th := range ths {
			s.Join(th)
		}
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
