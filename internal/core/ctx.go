//go:build go1.23

package core

import (
	"fmt"
	"iter"
)

// Execution contexts: the host backing of running threads.
//
// Every running thread executes on an execution context, a coroutine made
// with iter.Pull. A driver loop (Drive; Run starts one goroutine for it)
// resumes whichever context holds the baton; a context that hands the
// processor to another thread records that thread's context as the baton
// and yields back to the driver. Both transfers go through
// runtime.coroswitch, never through the Go scheduler, so a simulated
// context switch costs a direct host transfer of control, as the paper's
// switch costs a window flush and a register reload with no kernel trip.
//
// A System that shares a timeline with others (the fabric's hosts) is
// driven from outside instead: Start prepares the main thread, Drive runs
// the driver loop on the caller, and Suspend, called by the clock's
// governor on the running context, returns from Drive with that context
// holding the baton, so the next Drive resumes it where it stopped.
//
// A goroutine-backed thread (Create) holds its context from first
// dispatch until it exits. A continuation thread (CreateCont) holds one
// only while it runs between declared parks. Released contexts wait in a
// small idle pool, LIFO, so the thread dispatched right after a release
// usually binds the context that is still running: it then continues on
// that context with no host switch at all. That is the trampoline that
// lets one context run a chain of continuation wakeups.
//
// All context bookkeeping runs in kernel context on the one running
// context, so it needs no lock.

// execCtx is one pooled execution context.
type execCtx struct {
	t    *Thread // bound thread; nil while idle or retiring
	idle bool    // waiting in System.ctxIdle
	idx  int     // slot in System.ctxAll

	yield func(struct{}) bool     // suspend; called on the context itself
	next  func() (struct{}, bool) // resume; called by the driver only
	stop  func()                  // unwind at teardown; driver only
}

// ctxIdleMax bounds the idle pool; a context released beyond it ends
// once its thread has unwound.
const ctxIdleMax = 16

// bindCtx gives a thread about to be dispatched an execution context,
// from the idle pool when one waits there.
func (s *System) bindCtx(t *Thread) {
	var c *execCtx
	if n := len(s.ctxIdle); n > 0 {
		c = s.ctxIdle[n-1]
		s.ctxIdle[n-1] = nil
		s.ctxIdle = s.ctxIdle[:n-1]
		c.idle = false
	} else {
		c = s.newCtx()
	}
	c.t = t
	t.ctx = c
	if k := t.cont; k != nil {
		s.stats.RunnerBinds++
		if k.parked {
			k.parked = false
			s.stats.ContParked--
		}
	}
}

// releaseCtx detaches a terminating or parking thread from its context,
// which is the one running now. The context serves the next thread bound
// to it once the caller has unwound to ctxLoop.
func (s *System) releaseCtx(t *Thread) {
	c := t.ctx
	t.ctx = nil
	c.t = nil
	if len(s.ctxIdle) < ctxIdleMax {
		c.idle = true
		s.ctxIdle = append(s.ctxIdle, c)
		return
	}
	s.dropCtx(c)
}

// dropCtx removes a context from the live set; the caller ends it.
func (s *System) dropCtx(c *execCtx) {
	last := len(s.ctxAll) - 1
	s.ctxAll[last].idx = c.idx
	s.ctxAll[c.idx] = s.ctxAll[last]
	s.ctxAll[last] = nil
	s.ctxAll = s.ctxAll[:last]
}

// newCtx creates a context and adds it to the live set. Its coroutine
// first runs when the driver resumes it with the baton, by which time a
// thread is bound to it — except for the main context, which Start
// leaves unbound.
func (s *System) newCtx() *execCtx {
	c := &execCtx{idx: len(s.ctxAll)}
	s.ctxAll = append(s.ctxAll, c)
	if n := int64(len(s.ctxAll)); n > s.runnerPeak {
		s.runnerPeak = n
	}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		s.ctxLoop(c)
	})
	return c
}

// ctxLoop is the body of one context: run the bound thread until it
// exits or parks, then serve whichever thread is bound next — at once
// when the release and the next bind were the same dispatch, otherwise
// after waiting in the idle pool. It ends when its thread's run was cut
// short (the process ended), when it retires, or when stopped while idle.
// The main context first runs the set-up of the main thread.
func (s *System) ctxLoop(c *execCtx) {
	if c.t == nil && !s.startMain(c) {
		return
	}
	for {
		t := c.t
		s.runThread(t)
		switch {
		case c.t == t:
			return // the process ended while t ran
		case c.t == nil:
			if !c.idle || !c.yield(struct{}{}) {
				return // retired, or stopped while idle
			}
		}
	}
}

// park suspends the calling thread's context until the driver resumes it
// with the baton. A context stopped at teardown unwinds its thread.
func (s *System) park(t *Thread) {
	if !t.ctx.yield(struct{}{}) {
		panic(killPanic{})
	}
	s.restoreSwitchMask()
}

// Suspend parks the running context and returns from the Drive that
// resumed it; that context keeps the baton, so the next Drive continues
// it. A clock governor calls it to hold the System until the virtual
// time it asked for is granted. If the System is torn down instead (or
// already is: teardown marks the context it stops as running), the
// calling thread unwinds and Suspend does not return.
func (s *System) Suspend() {
	s.baton = s.running
	s.suspended = true
	if !s.running.yield(struct{}{}) {
		panic(killPanic{})
	}
}

// Drive runs the driver loop on the calling goroutine: it resumes the
// context holding the baton until one suspends the System (false), or
// the process ends or no context holds the baton (true; Err then holds
// what Run returns). A suspended context resumes even once the process
// has ended: it may be unwinding a thread that asked for time after
// Shutdown. Unless suspended, the driver then stops every remaining
// context, in a deferred call so that a thread body's runtime.Goexit,
// re-raised here out of next, still tears the System down with the
// diagnosis runThread recorded before Goexit leaves Drive.
func (s *System) Drive() (ended bool) {
	defer func() {
		if !s.suspended {
			s.teardown()
		}
	}()
	for c := s.baton; c != nil && (s.suspended || !s.finished); c = s.baton {
		s.baton = nil
		s.suspended = false
		s.running = c
		c.next()
		if s.suspended {
			return false
		}
	}
	return true
}

// teardown ends every live context, suspended or idle. A stopped
// context's yield returns false, so its thread unwinds through park or
// Suspend. Code running in that unwinding may still dispatch: emptying
// the idle pool first keeps it from binding a stopped context, and a
// context it creates joins the live set and is stopped in turn.
func (s *System) teardown() {
	s.ctxIdle = nil
	for n := len(s.ctxAll); n > 0; n = len(s.ctxAll) {
		c := s.ctxAll[n-1]
		s.dropCtx(c)
		s.running = c
		c.stop()
	}
}

// runThread runs t on the calling context until it exits or, for a
// continuation thread, parks. Anything else that ends the run is fatal
// to the simulated process: an escaped user panic, or runtime.Goexit
// (e.g. t.Fatal in thread code). A killPanic is the process already
// ending (Shutdown, a fatal signal, deadlock, teardown).
func (s *System) runThread(t *Thread) {
	completed := false
	defer func() {
		r := recover()
		switch {
		case r == nil && completed:
		case r == nil:
			s.finish(fmt.Errorf("%v: thread body called runtime.Goexit (e.g. t.Fatal in thread code)", t), nil)
		default:
			if _, ok := r.(killPanic); !ok {
				s.finish(fmt.Errorf("panic in %v: %v", t, r), nil)
			}
		}
	}()
	s.restoreSwitchMask()
	if k := t.cont; k != nil {
		if status, exited := s.contBody(k); exited {
			s.exitCurrent(status)
		}
	} else {
		s.exitCurrent(s.callBody(t))
	}
	completed = true
}
