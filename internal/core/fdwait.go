package core

import (
	"strconv"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// This file is the library half of the blocking-I/O jacket layer: the
// per-descriptor wait lists and the FDBlockingCall primitive that turns
// a non-blocking descriptor operation into a per-thread blocking call.
//
// The paper keeps one thread's blocking UNIX call from stopping the whole
// process by issuing asynchronous requests and suspending the thread until
// the SIGIO completion is demultiplexed back (recipient rule 4). The SR
// and MPD runtime ports formalize the same idea as "jacket routines"
// around each blocking syscall. Here the two meet: the socket layer
// (internal/net) exposes non-blocking try-operations and announces
// readiness through SIGIO completions carrying descriptor sets; this file
// parks threads on priority-ordered per-(fd, direction) lists and wakes
// them from those completions. A blocked jacket call is interrupted with
// EINTR by a handled signal (via a fake call) and is an interruption
// point for cancellation, per the paper's SIGCANCEL rules.

// FDDir selects the direction of a descriptor wait.
type FDDir uint8

const (
	// FDRead waits for the descriptor to become readable (data, EOF,
	// a queued connection on a listener, a completed device request).
	FDRead FDDir = iota
	// FDWrite waits for the descriptor to become writable (buffer space,
	// an established or refused connect).
	FDWrite
)

// String names the direction.
func (d FDDir) String() string {
	if d == FDRead {
		return "read"
	}
	return "write"
}

// fdKey identifies one wait list (trace-label interning only; the wait
// lists themselves live in the fd-hashed shards below).
type fdKey struct {
	fd  unixkern.FD
	dir FDDir
}

// The wait lists are sharded by descriptor hash: shard index is the low
// six bits of the fd, and within a shard the remaining bits index a dense
// slice of per-descriptor {read, write} list heads. Parking and waking a
// waiter therefore touch two array slots — no global map insert or
// delete on the hot path, and no rehashing as the descriptor population
// grows to 100k and beyond.
//
// A list is intrusive, as the paper's wait lists are: the waiters' own
// TCBs are linked through fdNext/fdPrev, so a waited-on descriptor costs
// its 8-byte slot and nothing else. The head waiter's fdPrev is the tail
// and its fdDepth the list length. Each waiter records in fdLevel the
// priority it was queued at, and insertion walks back from the tail past
// lower levels, so the list keeps the order of every other wait queue in
// the library: highest level first, FIFO within a level. With equal
// priorities the walk stops at the tail at once; unlinking is O(1).
const (
	fdwShardBits  = 6
	fdwShardCount = 1 << fdwShardBits
	fdwShardMask  = fdwShardCount - 1
)

type fdwShard struct {
	slots [][2]*Thread // list heads, indexed by fd >> fdwShardBits
}

// fdFind returns the list-head slot of (fd, dir), or nil if no waiter
// ever parked on a descriptor of its shard row. The pointer is valid
// until the shard's table next grows, so callers use it at once.
func (s *System) fdFind(fd unixkern.FD, dir FDDir) **Thread {
	sh := &s.fdShards[int(fd)&fdwShardMask]
	idx := int(fd) >> fdwShardBits
	if idx >= len(sh.slots) {
		return nil
	}
	return &sh.slots[idx][dir]
}

// fdSlot is fdFind that grows the shard's dense table on first use.
func (s *System) fdSlot(fd unixkern.FD, dir FDDir) **Thread {
	sh := &s.fdShards[int(fd)&fdwShardMask]
	idx := int(fd) >> fdwShardBits
	for idx >= len(sh.slots) {
		sh.slots = append(sh.slots, [2]*Thread{})
	}
	return &sh.slots[idx][dir]
}

// fdPush links t into the list headed at *head, behind every waiter
// queued at level or above.
func fdPush(head **Thread, t *Thread, level int) {
	t.fdLevel = int8(level)
	h := *head
	if h == nil {
		t.fdNext, t.fdPrev, t.fdDepth = nil, t, 1
		*head = t
		return
	}
	p := h.fdPrev // the tail
	for p != nil && int(p.fdLevel) < level {
		if p == h {
			p = nil
		} else {
			p = p.fdPrev
		}
	}
	if p == nil { // t outranks every waiter: it becomes the head
		t.fdNext, t.fdPrev, t.fdDepth = h, h.fdPrev, h.fdDepth+1
		h.fdPrev, h.fdDepth = t, 0
		*head = t
		return
	}
	t.fdNext, t.fdPrev = p.fdNext, p
	if p.fdNext != nil {
		p.fdNext.fdPrev = t
	} else {
		h.fdPrev = t
	}
	p.fdNext = t
	h.fdDepth++
}

// fdUnlink takes t off the list headed at *head.
func fdUnlink(head **Thread, t *Thread) {
	h := *head
	if t == h {
		if n := t.fdNext; n != nil {
			n.fdPrev, n.fdDepth = t.fdPrev, t.fdDepth-1
		}
		*head = t.fdNext
	} else {
		t.fdPrev.fdNext = t.fdNext
		if t.fdNext != nil {
			t.fdNext.fdPrev = t.fdPrev
		} else {
			h.fdPrev = t.fdPrev
		}
		h.fdDepth--
	}
	t.fdNext, t.fdPrev, t.fdDepth = nil, nil, 0
}

// fdWaitTag is the timer datum of a timed descriptor wait; like
// timedWaitTag it bypasses the recipient rules and terminates the wait
// directly (see deliverToLibrary).
type fdWaitTag struct {
	t *Thread
}

// fdLabel returns the interned wait-list label for traces ("fd3/read").
// Call sites guard on the tracer, so when tracing is off neither the
// formatting nor the cache is ever touched; with tracing on, each
// (fd, dir) pair is formatted exactly once.
func (s *System) fdLabel(fd unixkern.FD, dir FDDir) string {
	key := fdKey{fd: fd, dir: dir}
	if name, ok := s.fdNames[key]; ok {
		return name
	}
	if s.fdNames == nil {
		s.fdNames = make(map[fdKey]string)
	}
	name := "fd" + strconv.Itoa(int(fd)) + "/" + dir.String()
	s.fdNames[key] = name
	return name
}

// FDBlockingCall is the jacket primitive: it runs attempt inside the
// library kernel and, while the operation would block, suspends the
// calling thread on the (fd, dir) wait list until a SIGIO completion
// designates it. attempt reports done=true when the operation completed
// (the call returns nil) and more=true when residual readiness remains —
// the next waiter is then designated immediately, so a single completion
// carrying several units of readiness (a burst of data, several queued
// connections) wakes the whole chain in priority order.
//
// Because attempt runs with the kernel flag set, checking readiness and
// deciding to suspend are atomic with respect to event delivery: the
// classic lost-wakeup window between "poll said not ready" and "thread
// parked" cannot occur. A timeout > 0 bounds the whole call (ETIMEDOUT);
// a handled signal delivered to the blocked thread interrupts it (EINTR,
// after the handler ran); cancellation terminates it as an interruption
// point.
func (s *System) FDBlockingCall(fd unixkern.FD, dir FDDir, what string, timeout vtime.Duration, attempt func() (done, more bool)) error {
	return s.fdBlocking(fd, dir, what, timeout, nil, attempt)
}

// FDOp is the allocation-free form of a jacket attempt: a reusable
// operation struct stored in an interface instead of a fresh closure per
// call. Attempt has the same contract as FDBlockingCall's attempt.
type FDOp interface {
	Attempt() (done, more bool)
}

// FDBlockingOp is FDBlockingCall for pooled operation structs. The jacket
// layer (internal/io) keeps a free list of these, so a steady-state
// read/write loop allocates nothing.
func (s *System) FDBlockingOp(fd unixkern.FD, dir FDDir, what string, timeout vtime.Duration, op FDOp) error {
	return s.fdBlocking(fd, dir, what, timeout, op, nil)
}

// fdBlocking is the shared jacket loop; exactly one of op and attempt is
// non-nil. The virtual costs charged are identical for both forms.
func (s *System) fdBlocking(fd unixkern.FD, dir FDDir, what string, timeout vtime.Duration, op FDOp, attempt func() (done, more bool)) error {
	w := waitState{fd: fd, dir: dir, what: what, d: timeout, fdop: op}
	s.fdPrepare(&w)
	_, err := s.fdLoop(s.current, &w, attempt, nil)
	return err
}

// fdPrepare opens a jacket call: it is an interruption point, fixes the
// deadline of a call bounded by w.d, and enters the kernel for the
// first attempt.
func (s *System) fdPrepare(w *waitState) {
	s.TestCancel()
	if w.d > 0 {
		w.deadline = s.clock.Now().Add(w.d)
	}
	s.enterKernel()
}

// fdLoop runs the jacket loop from an attempt inside the kernel:
// attempt, and while the operation would block, enqueue, park and act
// on the wake. It returns the call's result once the call completes.
// A continuation thread (k non-nil) parks through contBlock instead of
// blockCurrent; when its context was released fdLoop reports parked,
// and the thread re-enters through fdWake once designated.
func (s *System) fdLoop(t *Thread, w *waitState, attempt func() (done, more bool), k *Cont) (parked bool, err error) {
	for {
		if block, err := s.fdAttempt(t, w, attempt); !block {
			return false, err
		}
		if k == nil {
			s.blockCurrent(BlockFD, w.what)
		} else if s.contBlock(k, BlockFD, w.what) {
			return true, nil
		}
		if retry, err := s.fdWake(t, w); !retry {
			return false, err
		}
	}
}

// fdAttempt runs one attempt of the operation inside the kernel. It
// reports false, with the call's result and the kernel left, when the
// operation completed or the deadline passed; otherwise t is queued on
// (w.fd, w.dir), with the remaining time armed, and must park.
func (s *System) fdAttempt(t *Thread, w *waitState, attempt func() (done, more bool)) (block bool, err error) {
	var done, more bool
	if attempt != nil {
		done, more = attempt()
	} else {
		done, more = w.fdop.Attempt()
	}
	if done {
		if more {
			s.fdWakeTop(w.fd, w.dir, "chain")
		}
		s.leaveKernel()
		return false, nil
	}
	// A cancellation that arrived while this thread was designated
	// (ready but not yet dispatched) must not be followed by an
	// unwakeable re-block: act on it here, at the interruption point.
	if t.cancelState == CancelControlled && t.cancelPending {
		s.leaveKernel()
		s.TestCancel() // exits
	}
	if w.d > 0 {
		rem := w.deadline.Sub(s.clock.Now())
		if rem <= 0 {
			s.stats.FDTimeouts++
			if s.tracer != nil {
				s.traceObj(EvIO, t, s.fdLabel(w.fd, w.dir), "timeout", w.what)
			}
			s.leaveKernel()
			return false, ETIMEDOUT.Or()
		}
		t.fdTag.t = t
		t.waitTimer = s.kern.SetTimerInternal(s.proc, sigalrm, rem, &t.fdTag)
	}
	s.fdEnqueue(w.fd, w.dir, t)
	t.wake = wakeNone
	s.stats.FDWaits++
	if s.tracer != nil {
		s.traceObj(EvIO, t, s.fdLabel(w.fd, w.dir), "block", w.what)
	}
	w.blockedAt = s.clock.Now()
	s.fdBlockedNow++
	return true, nil
}

// fdWake is the jacket loop after a park: it accounts the wait and acts
// on the wake cause. It reports retry, with the kernel entered again,
// when a completion designated t; otherwise the call ends with err.
func (s *System) fdWake(t *Thread, w *waitState) (retry bool, err error) {
	s.fdBlockedNow--
	s.stats.FDBlockedNS += int64(s.clock.Now().Sub(w.blockedAt))
	if s.metrics != nil {
		s.metrics.FDBlocked(w.blockedAt, t, int(w.fd), w.dir, s.clock.Now().Sub(w.blockedAt))
	}
	if t.waitTimer != 0 {
		s.kern.DisarmInternal(t.waitTimer)
		t.waitTimer = 0
	}
	switch t.wake {
	case wakeIO:
		// Designated by a completion: retry the operation. Another
		// thread may have consumed the readiness first, in which case
		// the loop simply re-blocks.
		s.enterKernel()
		return true, nil
	case wakeTimeout:
		s.stats.FDTimeouts++
		return false, ETIMEDOUT.Or()
	case wakeInterrupt:
		// A user signal handler interrupted the wait; it already ran
		// (fake call) and the jacket call reports EINTR.
		s.stats.FDEINTRs++
		if s.tracer != nil {
			s.traceObj(EvIO, t, s.fdLabel(w.fd, w.dir), "eintr", w.what)
		}
		return false, EINTR.Or()
	case wakeCancel:
		s.TestCancel() // exits via the cancellation machinery
		return false, EINTR.Or()
	default:
		panic("core: fd wait woke with unexpected cause")
	}
}

// fdEnqueue parks a thread on the (fd, dir) wait list, priority-ordered
// like every other wait queue in the library. Runs in the kernel.
func (s *System) fdEnqueue(fd unixkern.FD, dir FDDir, t *Thread) {
	head := s.fdSlot(fd, dir)
	s.cpu.ChargeInstr(instrReadyQueueOp)
	fdPush(head, t, t.prio)
	t.waitFD, t.waitFDDir, t.fdWaiting = fd, dir, true
	if d := int64((*head).fdDepth); d > s.stats.FDMaxWaitDepth {
		s.stats.FDMaxWaitDepth = d
	}
}

// fdWakeTop designates the highest-priority waiter on (fd, dir): it is
// unlinked and made ready with wake cause wakeIO. Wake-one is the policy;
// residual readiness propagates by chaining (FDBlockingCall's more flag),
// so no completion is ever fanned out to waiters that would find nothing.
// Runs in the kernel.
func (s *System) fdWakeTop(fd unixkern.FD, dir FDDir, why string) {
	if head := s.fdFind(fd, dir); head != nil && *head != nil {
		s.fdDesignate(head, why)
	}
}

// fdWakeAll designates every waiter on (fd, dir), highest priority first.
// Used for wake-all completions (shared device descriptors) and close.
func (s *System) fdWakeAll(fd unixkern.FD, dir FDDir, why string) {
	head := s.fdFind(fd, dir)
	for head != nil && *head != nil {
		s.fdDesignate(head, why)
	}
}

// fdDesignate unlinks the head waiter of a non-empty list and makes it
// ready with wake cause wakeIO.
func (s *System) fdDesignate(head **Thread, why string) {
	t := *head
	fdUnlink(head, t)
	s.cpu.ChargeInstr(instrReadyQueueOp)
	t.fdWaiting = false
	t.wake = wakeIO
	s.stats.FDWakeups++
	if s.tracer != nil {
		s.traceObj(EvIO, t, s.fdLabel(t.waitFD, t.waitFDDir), "wake", why)
	}
	s.makeReady(t, false)
}

// fdRemoveWaiter takes a still-queued thread off its wait list (cancel,
// EINTR, timeout). A queued thread was never designated, so no readiness
// is lost and no chain wake is needed. Runs in the kernel.
func (s *System) fdRemoveWaiter(t *Thread) {
	if !t.fdWaiting {
		return
	}
	fdUnlink(s.fdSlot(t.waitFD, t.waitFDDir), t)
	t.fdWaiting = false
}

// fdCompletion is recipient rule 4 in per-descriptor form: a SIGIO whose
// datum is an IOCompletion wakes the waiters of each descriptor the
// completing event made ready. Runs in the kernel.
func (s *System) fdCompletion(c *unixkern.IOCompletion) {
	for i := range c.Ready {
		r := &c.Ready[i]
		if r.R {
			if r.All {
				s.fdWakeAll(r.FD, FDRead, "completion")
			} else {
				s.fdWakeTop(r.FD, FDRead, "completion")
			}
		}
		if r.W {
			if r.All {
				s.fdWakeAll(r.FD, FDWrite, "completion")
			} else {
				s.fdWakeTop(r.FD, FDWrite, "completion")
			}
		}
	}
	// The readiness sets are consumed; hand an owned completion back to
	// its pool (no-op for unowned ones).
	c.Release()
}

// FDKickAll wakes every thread waiting on the descriptor, both
// directions. The jacket layer calls it from close(): the kicked threads
// re-attempt their operation and observe the closed state.
func (s *System) FDKickAll(fd unixkern.FD) {
	s.enterKernel()
	s.fdWakeAll(fd, FDRead, "close")
	s.fdWakeAll(fd, FDWrite, "close")
	s.leaveKernel()
}

// FDWaitDepth reports how many threads wait on (fd, dir) right now.
// Bare accessor (see introspect.go): thread context or post-Run only.
func (s *System) FDWaitDepth(fd unixkern.FD, dir FDDir) int {
	if head := s.fdFind(fd, dir); head != nil && *head != nil {
		return int((*head).fdDepth)
	}
	return 0
}

// CountFDBytes adds to the jacket byte counter; the jacket layer calls it
// from inside attempt for every byte actually moved.
func (s *System) CountFDBytes(n int) { s.stats.FDBytes += int64(n) }
