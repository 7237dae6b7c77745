package main

import (
	"fmt"

	"pthreads/internal/core"
	"pthreads/internal/sem"
	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// sync-pool: one uniprocessor System running a SCHED_FIFO pool of
// goroutine threads. The main thread produces tasks into a bounded
// queue (mutex + two conds); each worker pops a task and runs its mix
// of uncontended lock pairs, semaphore P/V, yields, pooled
// Create+Join, pthread_kill to its suspended peer (a fake call into a
// handler) and an occasional process-level signal. One op is one task.

// Virtual cost of one uncontended lock/unlock pair per protocol
// (BENCH_host.json, BenchmarkMutexProtocols): every pair in a task must
// cost exactly this much virtual time.
var lockPairVirtual = [3]vtime.Duration{1000, 1100, 3600}

var lockSpans = [3]spanName{spLockNone, spLockInherit, spLockCeiling}

type syncPool struct{ in *poolInputs }

func (w *syncPool) episode(m *meter, tr *tracer) error {
	in := w.in
	ep := m.ep
	m.beginSetup()
	s := core.New(core.Config{PoolSize: 2*in.Mix.Workers + 8})
	var (
		runErr    error
		handled   [2]int64
		taskVirt  vtime.Duration
		lockFails int64
	)
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	err := s.Run(func() {
		prio := s.Self().Priority()
		if err := s.Sigaction(unixkern.SIGUSR1, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) { handled[0]++ }, 0); err != nil {
			fail(err)
			return
		}
		if err := s.Sigaction(unixkern.SIGUSR2, func(unixkern.Signal, *unixkern.SigInfo, *core.SigContext) { handled[1]++ }, 0); err != nil {
			fail(err)
			return
		}
		// The producer and the workers block SIGUSR2, so the universal
		// handler demultiplexes it to a peer.
		s.SetSigmask(unixkern.MakeSigset(unixkern.SIGUSR2))

		// Peers sit suspended at a higher priority: a signal runs their
		// handler at once as a fake call, then they sleep again.
		stop := false
		peerAttr := core.DefaultAttr()
		peerAttr.Priority = prio + 1
		peers := make([]*core.Thread, in.Mix.Workers)
		for i := range peers {
			peerAttr.Name = fmt.Sprintf("peer%d", i)
			th, err := s.Create(peerAttr, func(any) any {
				s.SetSigmask(0)
				for !stop {
					s.Sleep(vtime.Second * 3600)
				}
				return nil
			}, nil)
			if err != nil {
				fail(err)
				return
			}
			peers[i] = th
		}

		qm := s.MustMutex(core.MutexAttr{Name: "queue"})
		notEmpty, notFull := s.NewCond("not-empty"), s.NewCond("not-full")
		queue := make([]int, 0, in.Mix.Queue)
		closed := false
		root := tr.open(spEpisode, -1, 0, nil, -1)

		worker := func(wi int) {
			locks := [3]*core.Mutex{
				s.MustMutex(core.MutexAttr{Name: fmt.Sprintf("none%d", wi)}),
				s.MustMutex(core.MutexAttr{Name: fmt.Sprintf("inherit%d", wi), Protocol: core.ProtocolInherit}),
				s.MustMutex(core.MutexAttr{Name: fmt.Sprintf("ceiling%d", wi), Protocol: core.ProtocolCeiling, Ceiling: 30}),
			}
			sm := sem.Must(s, fmt.Sprintf("sem%d", wi), 1)
			childAttr := core.DefaultAttr()
			childAttr.Priority = prio + 1
			childAttr.Name = fmt.Sprintf("child%d", wi)
			child := func(any) any { return nil }
			for {
				sp := tr.open(spQueueLock, root, 0, s, 0)
				qm.Lock()
				tr.close(sp, s)
				for len(queue) == 0 && !closed {
					sp = tr.open(spCondWait, root, 0, s, 0)
					notEmpty.Wait(qm)
					tr.close(sp, s)
				}
				if len(queue) == 0 {
					qm.Unlock()
					return
				}
				ti := queue[0]
				queue = append(queue[:0], queue[1:]...)
				sp = tr.open(spCondHandoff, root, 0, s, 0)
				notFull.Signal()
				tr.close(sp, s)
				qm.Unlock()

				op := int32(ti + 1)
				task := &in.Tasks[ti]
				v0 := s.Now()
				ok := true
				for p, n := range task.Locks {
					for range n {
						sp := tr.open(lockSpans[p], root, op, s, 0)
						l0 := s.Now()
						e1, e2 := locks[p].Lock(), locks[p].Unlock()
						if e1 != nil || e2 != nil || s.Now().Sub(l0) != lockPairVirtual[p] {
							ok = false
							lockFails++
						}
						tr.close(sp, s)
					}
				}
				for range task.SemPV {
					sp := tr.open(spSemPV, root, op, s, 0)
					if sm.P() != nil || sm.V() != nil {
						ok = false
					}
					tr.close(sp, s)
				}
				for range task.Yields {
					sp := tr.open(spYield, root, op, s, 0)
					s.Yield()
					tr.close(sp, s)
				}
				if task.Create {
					sp := tr.open(spCreateJoin, root, op, s, 0)
					th, err := s.Create(childAttr, child, nil)
					if err == nil {
						_, err = s.Join(th)
					}
					if err != nil {
						ok = false
					}
					tr.close(sp, s)
				}
				if task.Kill {
					sp := tr.open(spKill, root, op, s, 0)
					if s.Kill(peers[wi], unixkern.SIGUSR1) != nil {
						ok = false
					}
					tr.close(sp, s)
				}
				if task.Raise {
					sp := tr.open(spRaise, root, op, s, 0)
					if s.RaiseProcess(unixkern.SIGUSR2) != nil {
						ok = false
					}
					tr.close(sp, s)
				}
				taskVirt += s.Now().Sub(v0)
				if ok {
					m.op()
				} else {
					ep.failed++
				}
			}
		}

		workerAttr := core.DefaultAttr()
		workers := make([]*core.Thread, in.Mix.Workers)
		for i := range workers {
			workerAttr.Name = fmt.Sprintf("worker%d", i)
			th, err := s.Create(workerAttr, func(any) any { worker(i); return nil }, nil)
			if err != nil {
				fail(err)
				return
			}
			workers[i] = th
		}
		m.endSetup(len(peers) + len(workers) + 1)
		m.gauge = func() int { return s.Clock().Pending() }

		var lib libCounters
		lib.addSystem(s)
		m.beginTimed(lib, s.Now())
		for ti := range in.Tasks {
			sp := tr.open(spQueueLock, root, 0, s, 0)
			qm.Lock()
			tr.close(sp, s)
			for len(queue) == cap(queue) {
				sp = tr.open(spCondWait, root, 0, s, 0)
				notFull.Wait(qm)
				tr.close(sp, s)
			}
			queue = append(queue, ti)
			sp = tr.open(spCondHandoff, root, 0, s, 0)
			notEmpty.Signal()
			tr.close(sp, s)
			qm.Unlock()
		}
		qm.Lock()
		closed = true
		notEmpty.Broadcast()
		qm.Unlock()
		for _, th := range workers {
			if _, err := s.Join(th); err != nil {
				fail(err)
			}
		}
		lib = libCounters{}
		lib.addSystem(s)
		m.endTimed(lib, s.Now())
		tr.close(root, nil)

		ep.digest = digestOf(s.Now(), virtualCore(s.Stats()), handled, taskVirt, lockFails)
		stop = true
		s.Shutdown(nil)
	})
	if err == nil {
		err = runErr
	}
	return err
}
