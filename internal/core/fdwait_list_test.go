package core

import (
	"math/rand"
	"testing"

	"pthreads/internal/sched"
)

// Differential check of the intrusive descriptor wait list (fdPush,
// fdUnlink) against sched.Queue, the ring-per-level priority queue every
// other wait queue in the library uses. The two share no code, so an op
// sequence that leaves them disagreeing on order, depth or peak depth is
// a bug in one of them. Plain `go test` runs FuzzFDWaitList over its
// checked-in seed corpus, and TestFDWaitListMatchesQueue over seeded
// random sequences; `go test -fuzz FuzzFDWaitList` explores further.

// fdListWaiters is the size of the thread pool an op sequence draws on.
const fdListWaiters = 12

// fdListOps decodes data into operations on one wait list and checks the
// list against a sched.Queue oracle after every step. Each op is one
// selector byte and up to two argument bytes; a missing argument reads
// as 0.
func fdListOps(t *testing.T, data []byte) {
	t.Helper()
	var (
		head    *Thread
		oracle  sched.Queue[*Thread]
		ths     [fdListWaiters]*Thread
		level   [fdListWaiters]int // oracle's record of queued levels; -1 off the list
		maxSeen int64
	)
	for i := range ths {
		ths[i] = &Thread{id: ThreadID(i)}
		level[i] = -1
	}
	arg := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// pick returns the n-th queued (want true) or unqueued thread.
	pick := func(n int, want bool) *Thread {
		var c []*Thread
		for i, th := range ths {
			if (level[i] >= 0) == want {
				c = append(c, th)
			}
		}
		if len(c) == 0 {
			return nil
		}
		return c[n%len(c)]
	}
	pop := func(step int) {
		want, _, _ := oracle.DequeueMax()
		got := head
		fdUnlink(&head, got)
		if got != want {
			t.Fatalf("step %d: woke %v, oracle woke %v", step, got, want)
		}
		level[got.id] = -1
	}
	for step := 0; len(data) > 0; step++ {
		switch op := arg() % 5; {
		case op == 0: // park
			th, lv := pick(arg(), false), arg()%sched.NumPrio+sched.MinPrio
			if th == nil {
				continue
			}
			fdPush(&head, th, lv)
			oracle.Enqueue(th, lv)
			level[th.id] = lv
			if int64(head.fdDepth) > maxSeen {
				maxSeen = int64(head.fdDepth)
			}
		case op == 1 && head != nil: // wake-top
			pop(step)
		case op == 2: // wake-all
			for head != nil {
				pop(step)
			}
		case op == 3: // unlink from anywhere (timeout, EINTR, cancel)
			th := pick(arg(), true)
			if th == nil {
				continue
			}
			fdUnlink(&head, th)
			if !oracle.Remove(th, level[th.id]) {
				t.Fatalf("step %d: oracle lost %v", step, th)
			}
			level[th.id] = -1
		case op == 4: // requeue at a new level (setPriority)
			th, lv := pick(arg(), true), arg()%sched.NumPrio+sched.MinPrio
			if th == nil {
				continue
			}
			fdUnlink(&head, th)
			fdPush(&head, th, lv)
			if !oracle.Remove(th, level[th.id]) {
				t.Fatalf("step %d: oracle lost %v", step, th)
			}
			oracle.Enqueue(th, lv)
			level[th.id] = lv
		}
		checkFDList(t, step, head, &oracle, ths[:])
		if m := oracle.Stats().MaxDepth; m != maxSeen {
			t.Fatalf("step %d: max depth %d, oracle %d", step, maxSeen, m)
		}
	}
}

// checkFDList compares the list headed at head with the oracle's
// scheduling order and checks the link invariants: the head's fdPrev is
// the tail, back links mirror forward links, only the head carries the
// depth, and a thread off the list has no links.
func checkFDList(t *testing.T, step int, head *Thread, oracle *sched.Queue[*Thread], ths []*Thread) {
	t.Helper()
	want := oracle.Items()
	var on [fdListWaiters]bool
	i := 0
	var prev *Thread
	for th := head; th != nil; th = th.fdNext {
		if i >= len(want) || th != want[i] {
			t.Fatalf("step %d: list position %d is %v, oracle order %v", step, i, th, want)
		}
		if prev != nil && th.fdPrev != prev {
			t.Fatalf("step %d: %v.fdPrev = %v, want %v", step, th, th.fdPrev, prev)
		}
		if th != head && th.fdDepth != 0 {
			t.Fatalf("step %d: non-head %v carries depth %d", step, th, th.fdDepth)
		}
		on[th.id] = true
		prev = th
		i++
	}
	if i != len(want) {
		t.Fatalf("step %d: list holds %d waiters, oracle %d", step, i, len(want))
	}
	if head != nil {
		if head.fdPrev != prev {
			t.Fatalf("step %d: head.fdPrev = %v, tail is %v", step, head.fdPrev, prev)
		}
		if int(head.fdDepth) != oracle.Len() {
			t.Fatalf("step %d: depth %d, oracle %d", step, head.fdDepth, oracle.Len())
		}
	}
	for _, th := range ths {
		if !on[th.id] && (th.fdNext != nil || th.fdPrev != nil || th.fdDepth != 0) {
			t.Fatalf("step %d: unlinked %v keeps links or depth", step, th)
		}
	}
}

// FuzzFDWaitList drives fdListOps from fuzzer input; the seed corpus is
// in testdata/fuzz/FuzzFDWaitList.
func FuzzFDWaitList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// A dozen waiters reach every list shape within a few hundred
		// ops; longer inputs only slow the search down.
		if len(data) > 1024 {
			data = data[:1024]
		}
		fdListOps(t, data)
	})
}

// TestFDWaitListMatchesQueue replays seeded random op sequences through
// the oracle comparison. Every other sequence draws its levels from a
// band of four, so that equal-priority FIFO runs and the backward
// insertion walk both occur often.
func TestFDWaitListMatchesQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 200; n++ {
		lv := func() byte {
			if n%2 == 0 {
				return byte(sched.DefaultPrio - 2 + rng.Intn(4))
			}
			return byte(rng.Intn(sched.NumPrio))
		}
		var data []byte
		for len(data) < 300 {
			// Parks and requeues outnumber wakes, so lists grow several
			// deep before a wake-all drains them.
			switch k := rng.Intn(16); {
			case k < 7:
				data = append(data, 0, byte(rng.Intn(256)), lv())
			case k < 9:
				data = append(data, 1)
			case k < 10:
				data = append(data, 2)
			case k < 12:
				data = append(data, 3, byte(rng.Intn(256)))
			default:
				data = append(data, 4, byte(rng.Intn(256)), lv())
			}
		}
		fdListOps(t, data)
	}
}
