package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"pthreads/internal/unixkern"
)

// ctxPopulation puts execution contexts in every state a run can end
// with: bound to goroutine-backed threads blocked in a condition wait,
// absent for continuation threads parked in one, and idle in the pool.
// wake releases every waiter; the caller then joins the returned threads.
func ctxPopulation(t *testing.T, s *System) (ths []*Thread, wake func()) {
	m := s.MustMutex(MutexAttr{Name: "pop"})
	c := s.NewCond("pop")
	open := false
	attr := DefaultAttr()
	attr.Priority = s.Self().Priority() + 1
	for i := 0; i < 2; i++ {
		th, err := s.Create(attr, func(any) any {
			m.Lock()
			for !open {
				c.Wait(m)
			}
			m.Unlock()
			return nil
		}, nil)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		ths = append(ths, th)
		th, err = s.CreateCont(attr, func(k *Cont) {
			k.Lock(m, func(k *Cont) {
				var wait ContFunc
				wait = func(k *Cont) {
					if !open {
						k.CondWait(c, m, wait)
						return
					}
					m.Unlock()
				}
				wait(k)
			})
		}, nil)
		if err != nil {
			t.Fatalf("CreateCont: %v", err)
		}
		ths = append(ths, th)
	}
	// A thread that exits leaves its context idle in the pool.
	attr.Priority = s.Self().Priority() - 1
	th, _ := s.Create(attr, func(any) any { return nil }, nil)
	s.Join(th)

	if st := s.Stats(); st.ContParked != 2 || st.RunnerLive < 4 {
		t.Errorf("population: %d parked, %d live contexts; want 2 parked, >= 4 live", st.ContParked, st.RunnerLive)
	}
	return ths, func() {
		m.Lock()
		open = true
		c.Broadcast()
		m.Unlock()
	}
}

// waitGoroutines fails unless the goroutine count returns to before:
// the driver and every context must end once Run has returned.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: before %d, after %d", before, after)
	}
}

func TestRunEndsWithoutLeakingContexts(t *testing.T) {
	cases := []struct {
		name    string
		end     func(s *System, ths []*Thread, wake func())
		wantErr string // "" wants a nil error
	}{
		{"exit", func(s *System, ths []*Thread, wake func()) {
			wake()
			for _, th := range ths {
				s.Join(th)
			}
		}, ""},
		{"shutdown", func(s *System, _ []*Thread, _ func()) {
			s.Shutdown(7)
		}, ""},
		{"deadlock", func(s *System, _ []*Thread, _ func()) {
			m := s.MustMutex(MutexAttr{Name: "never"})
			m.Lock()
			s.NewCond("never").Wait(m)
		}, "deadlock"},
		{"fatal signal", func(s *System, _ []*Thread, _ func()) {
			s.Kill(s.Self(), unixkern.SIGTERM)
		}, "SIGTERM"},
		{"panic", func(s *System, _ []*Thread, _ func()) {
			panic("boom")
		}, "panic in main"},
		{"cont panic", func(s *System, _ []*Thread, _ func()) {
			attr := DefaultAttr()
			attr.Priority = s.Self().Priority() + 1
			s.CreateCont(attr, func(k *Cont) { panic("boom") }, nil)
		}, "panic in"},
		{"goexit", func(s *System, _ []*Thread, _ func()) {
			runtime.Goexit()
		}, "Goexit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			s := New(Config{})
			err := s.Run(func() {
				ths, wake := ctxPopulation(t, s)
				tc.end(s, ths, wake)
			})
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Run: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Run = %v, want an error containing %q", err, tc.wantErr)
			}
			if tc.name == "shutdown" && s.ExitStatus() != 7 {
				t.Errorf("ExitStatus = %v, want 7", s.ExitStatus())
			}
			if st := s.Stats(); st.RunnerLive != 0 {
				t.Errorf("%d contexts live after Run returned", st.RunnerLive)
			}
			waitGoroutines(t, before)
		})
	}
}
