package core

import (
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// This file implements parked continuations: threads that release their
// execution context (ctx.go) while blocked at a declared kernel-mediated
// wait point (fd wait, cond/timed wait, sleep, mutex, join, yield) and
// are represented only by their TCB plus the small resume descriptor
// below. Wakeup binds a pooled context and resumes the recorded wait
// point, so a million parked threads cost a few cache lines each instead
// of a goroutine stack.
//
// The representation is purely host-side. Each blocking primitive is
// written once, split at its park into a prepare half (argument checks
// through the enqueue) and a finish half (the wake-cause switch). A
// goroutine-backed thread runs prepare, blockCurrent, finish; a
// continuation thread runs prepare, then contBlock, which releases its
// context, and re-enters at the finish half when woken. Both run every
// virtual charge, trace event, metrics call, and queue operation in the
// same order, so schedules stay bit-identical between the two
// representations (pinned by the lockstep tests in cont_lockstep_test.go).
//
// The key invariant making the rest of the library work unchanged:
// while a continuation thread is bound to a context, that context is its
// execution context exactly as for a goroutine-backed thread. Inline
// blocking inside a step — a contended Lock, a Dial handshake, a
// preemption, a cleanup handler — parks the context through the
// ordinary contextSwitch path and resumes on it. Only the single
// declared operation of a step releases the context back to the pool.

// ContFunc is one step of a continuation thread. A step runs to
// completion on an execution context; it may perform any library call
// inline, and may declare at most one blocking operation (k.Read is in
// the jacket layer; k.Sleep, k.CondWait, ... below), which must be the
// last action of the step. The declared operation's continuation runs
// as the next step once the operation completes.
type ContFunc func(k *Cont)

// contOp identifies the declared blocking operation of a step.
type contOp int

const (
	contOpNone contOp = iota
	contOpFD
	contOpSleep
	contOpYield
	contOpLock
	contOpWait
	contOpTimedWait
	contOpJoin
)

// Cont is a continuation thread's resume descriptor: the recorded wait
// point, its operands, and the results the resumed step reads. It is
// the whole host-side cost of a parked thread beyond the TCB. Frames
// are arena-backed and recycled when the thread is reclaimed.
type Cont struct {
	s *System
	t *Thread

	first  bool // next dispatch is the thread's first (runThread's prologue)
	parked bool // currently parked without an execution context

	next ContFunc // continuation recorded by the pending op (or next step)

	op      contOp
	opPhase int // 0 before the park, 1 after: contDrive re-enters at finish

	waitState // operands of the declared operation

	// Arg is the creation argument (CreateCont's arg).
	Arg any
	// Ret is the thread's exit status when the last step returns.
	Ret any
	// Err is the declared operation's error result.
	Err error
	// N is a byte-count result slot (the I/O jacket writes it).
	N int
	// Rem is Sleep's remaining-time result.
	Rem vtime.Duration
	// Val is Join's exit-status result.
	Val any
	// Env is a scratch slot for jacket layers that thread their own
	// state through a step chain without a closure.
	Env any
}

// Self returns the continuation's thread handle.
func (k *Cont) Self() *Thread { return k.t }

// Sys returns the owning system.
func (k *Cont) Sys() *System { return k.s }

// declare records the step's blocking operation. A step gets one.
func (k *Cont) declare(op contOp, next ContFunc) {
	if k.op != contOpNone {
		panic("core: continuation step declared two blocking operations")
	}
	k.op = op
	k.opPhase = 0
	k.next = next
	k.Err = nil
}

// Sleep declares a Sleep(d) park; then runs after the sleep with k.Rem
// holding the remaining time (see System.Sleep).
func (k *Cont) Sleep(d vtime.Duration, then ContFunc) {
	k.d = d
	k.declare(contOpSleep, then)
}

// Yield declares a sched_yield park (see System.Yield).
func (k *Cont) Yield(then ContFunc) {
	k.declare(contOpYield, then)
}

// Lock declares a mutex acquisition; a contended wait parks without a
// goroutine. then runs with the mutex held (or k.Err set, see
// Mutex.Lock).
func (k *Cont) Lock(m *Mutex, then ContFunc) {
	k.mu = m
	k.declare(contOpLock, then)
}

// CondWait declares a condition wait (Cond.Wait); the mutex is held
// again when then runs, with k.Err as Wait's result.
func (k *Cont) CondWait(c *Cond, m *Mutex, then ContFunc) {
	k.cv, k.mu = c, m
	k.declare(contOpWait, then)
}

// CondTimedWait declares a timed condition wait (Cond.TimedWait).
func (k *Cont) CondTimedWait(c *Cond, m *Mutex, d vtime.Duration, then ContFunc) {
	k.cv, k.mu, k.d = c, m, d
	k.declare(contOpTimedWait, then)
}

// Join declares a join on t (System.Join); then runs with k.Val holding
// the target's exit status and k.Err Join's result.
func (k *Cont) Join(t *Thread, then ContFunc) {
	k.target = t
	k.declare(contOpJoin, then)
}

// FDOp declares a blocking-jacket descriptor operation
// (System.FDBlockingOp); then runs with k.Err as the jacket result.
func (k *Cont) FDOp(fd unixkern.FD, dir FDDir, what string, timeout vtime.Duration, op FDOp, then ContFunc) {
	k.fd, k.dir, k.what, k.d, k.fdop = fd, dir, what, timeout, op
	k.declare(contOpFD, then)
}

// contBody is the continuation analogue of callBody: run the kernel-exit
// tail owed from the dispatch that resumed us, then drive steps; convert
// Exit unwinding into a return value.
func (s *System) contBody(k *Cont) (status any, exited bool) {
	defer func() {
		if r := recover(); r != nil {
			if ep, isExit := r.(exitPanic); isExit {
				status, exited = ep.status, true
				return
			}
			panic(r)
		}
	}()
	// A wakeup from a declared park runs the tail of the leaveKernel
	// that handed the processor away, as a goroutine thread returning
	// from park does; the first dispatch runs the tail callBody runs.
	s.userReturn(!k.first)
	k.first = false
	if s.contSteps(k) {
		return nil, false
	}
	return k.Ret, true
}

// contSteps drives the step machine: run the pending declared operation
// (if any), then successive steps until one parks or no continuation
// remains.
func (s *System) contSteps(k *Cont) (parked bool) {
	for {
		if k.op != contOpNone {
			if s.contDrive(k) {
				return true
			}
			k.op, k.opPhase = contOpNone, 0
			continue
		}
		next := k.next
		if next == nil {
			return false
		}
		k.next = nil
		next(k)
	}
}

// contDrive runs the declared operation through its primitive's shared
// halves: before the park (opPhase 0) the prepare half, then contBlock;
// after a wakeup (opPhase 1) the finish half. It returns true when the
// thread parked (its context is already released and the baton passed —
// the caller must unwind without touching k or its thread).
func (s *System) contDrive(k *Cont) (parked bool) {
	t, w := k.t, &k.waitState
	resumed := k.opPhase != 0
	switch k.op {
	case contOpSleep:
		if !resumed {
			if !s.sleepPrepare(t, w) {
				k.Rem = 0
				return false
			}
			if s.contBlock(k, BlockSleep, w.what) {
				return true
			}
		}
		k.Rem = s.sleepFinish(t, w)
	case contOpYield:
		if !resumed {
			s.yieldPrepare(t)
			return s.contLeave(k)
		}
	case contOpLock:
		if !resumed {
			if k.Err = s.lockCheck(k.mu, t); k.Err != nil {
				return false
			}
			if !s.lockPrepare(k.mu, t) {
				return false
			}
			if s.contBlock(k, BlockMutex, k.mu.waitName) {
				return true
			}
		}
		s.lockFinish(k.mu, t)
	case contOpWait, contOpTimedWait:
		if !resumed {
			var block bool
			if block, k.Err = s.condPrepare(t, k.cv, k.mu, k.d, k.op == contOpTimedWait); !block {
				return false
			}
			if s.contBlock(k, BlockCond, k.cv.waitName) {
				return true
			}
		}
		k.Err = s.condFinish(t, k.cv, k.mu)
	case contOpJoin:
		blocked := resumed
		if !resumed {
			var block bool
			if block, k.Err = s.joinPrepare(t, k.target); k.Err != nil {
				return false
			}
			if block {
				if s.contBlock(k, BlockJoin, "join "+k.target.String()) {
					return true
				}
				blocked = true
			}
		}
		k.Val = s.joinFinish(t, k.target, blocked)
	case contOpFD:
		if !resumed {
			s.fdPrepare(w)
		} else if retry, err := s.fdWake(t, w); !retry {
			k.Err = err
			return false
		}
		parked, k.Err = s.fdLoop(t, w, nil, k)
		return parked
	default:
		panic("core: unknown continuation operation")
	}
	return false
}

// contBlock is blockCurrent with the goroutine park replaced by the
// continuation handoff. Returns true when the thread parked.
func (s *System) contBlock(k *Cont, reason BlockReason, what string) bool {
	s.markBlocked(reason, what)
	return s.contLeave(k)
}

// contLeave is the continuation analogue of leaveKernel at a declared
// park point. It moves the operation to its finish half, then runs the
// dispatcher in handoff mode, which on a switch parks the thread and
// releases its context (the caller must then unwind to the context loop
// without touching shared state), or, if the dispatcher reselected this
// thread without a switch, runs leaveKernel's tail and continues inline.
func (s *System) contLeave(k *Cont) (parked bool) {
	if !s.kernelFlag {
		panic("core: contLeave outside kernel")
	}
	k.opPhase = 1
	// The kernel-exit decision hooks never fire here — the thread's
	// state is not Running at a park point, exactly as in leaveKernel.
	s.exploreSquelch = false
	s.contHandoff = true
	s.dispatch()
	s.contHandoff = false
	if k.t.ctx == nil {
		return true
	}
	// Reselected: this thread was made ready again during the dispatch
	// (restart-arc signal handling) and chosen without a switch. Finish
	// the kernel exit as leaveKernel would.
	s.userReturn(true)
	return false
}

// CreateCont starts a continuation thread whose first step is fn
// (pthread_create for the parked-continuation representation). It is
// Create with a different host backing: no context is bound until first
// dispatch, and none is held across declared parks.
func (s *System) CreateCont(attr Attr, fn ContFunc, arg any) (*Thread, error) {
	return s.create(attr, nil, fn, arg)
}
