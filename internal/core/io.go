package core

import (
	"fmt"

	"pthreads/internal/unixkern"
	"pthreads/internal/vtime"
)

// Sleep and asynchronous I/O: the blocking services whose completion
// reaches the library as signals (SIGALRM from the armed timer, SIGIO
// from the I/O completion), demultiplexed to the suspended thread by
// recipient rules 3 and 4.

// Sleep suspends the calling thread for d of virtual time. It returns the
// time remaining if the sleep was interrupted early by a signal handler
// (like sleep(3) returning nonzero after EINTR), or 0 after a full sleep.
// Sleep is an interruption point for cancellation.
func (s *System) Sleep(d vtime.Duration) vtime.Duration {
	t := s.current
	w := waitState{d: d}
	if !s.sleepPrepare(t, &w) {
		return 0
	}
	s.blockCurrent(BlockSleep, w.what)
	return s.sleepFinish(t, &w)
}

// sleepPrepare is Sleep up to the park. It reports false when w.d asks
// for no sleep; otherwise it arms t's wake timer inside the kernel and
// records the deadline and the wait label in w.
func (s *System) sleepPrepare(t *Thread, w *waitState) (block bool) {
	s.TestCancel()
	if w.d <= 0 {
		return false
	}
	w.deadline = s.clock.Now().Add(w.d)

	s.enterKernel()
	t.waitTimer = s.kern.SetTimer(s.proc, sigalrm, w.d, t, false)
	t.wake = wakeNone
	// The duration-carrying label is only rendered for traces; the plain
	// label keeps an untraced sleep storm allocation-free.
	w.what = "sleep"
	if s.tracer != nil {
		w.what = fmt.Sprintf("sleep %v", w.d)
	}
	return true
}

// sleepFinish is Sleep after the park: it returns the time left before
// w.deadline when a handler cut the sleep short, and 0 otherwise.
func (s *System) sleepFinish(t *Thread, w *waitState) vtime.Duration {
	switch t.wake {
	case wakeTimer:
		return 0
	case wakeCancel:
		s.TestCancel() // exits
		return 0
	case wakeInterrupt:
		if rem := w.deadline.Sub(s.clock.Now()); rem > 0 {
			return rem
		}
		return 0
	default:
		panic("core: sleep woke with unexpected cause")
	}
}

// AioRead issues an asynchronous read that completes after latency,
// suspending the calling thread until the SIGIO completion is
// demultiplexed back to it. It returns the transferred byte count.
// AioRead is an interruption point for cancellation. This is the
// library's substitute for the non-blocking I/O interfaces the paper's
// "Open Problems" section wishes UNIX had.
func (s *System) AioRead(latency vtime.Duration, bytes int) (int, error) {
	if latency < 0 || bytes < 0 {
		return 0, EINVAL.Or()
	}
	s.TestCancel()
	t := s.current

	s.enterKernel()
	t.aioID = s.kern.Aio(s.proc, latency, bytes, t)
	t.wake = wakeNone
	s.blockCurrent(BlockIO, "aio read")

	switch t.wake {
	case wakeIO:
		n, ok := s.kern.AioResult(t.aioID)
		if !ok {
			return 0, EINVAL.Or()
		}
		return n, nil
	case wakeCancel:
		s.TestCancel() // exits
		return 0, EINTR.Or()
	default:
		return 0, EINTR.Or()
	}
}

// Device is a simulated I/O device the thread system can issue transfers
// on: fixed setup latency plus a per-byte rate, FIFO-serviced, so
// concurrent requests to the same device queue while different devices
// overlap.
type Device struct {
	s *System
	d *unixkern.Device
}

// OpenDevice registers a device with the simulated kernel.
func (s *System) OpenDevice(name string, setup, perByte vtime.Duration) (*Device, error) {
	d, err := s.kern.NewDevice(name, setup, perByte)
	if err != nil {
		return nil, EINVAL.Or()
	}
	return &Device{s: s, d: d}, nil
}

// Name returns the device name.
func (dv *Device) Name() string { return dv.d.Name }

// Requests reports how many transfers were issued on the device.
func (dv *Device) Requests() int64 { return dv.d.Requests }

// Transfer issues an asynchronous transfer of the given size and
// suspends the calling thread until the SIGIO completion is
// demultiplexed back to it (recipient rule 4). It returns the byte
// count. Transfer is an interruption point for cancellation.
func (dv *Device) Transfer(bytes int) (int, error) {
	s := dv.s
	if bytes < 0 {
		return 0, EINVAL.Or()
	}
	s.TestCancel()
	t := s.current

	s.enterKernel()
	id, _ := s.kern.AioDevice(dv.d, s.proc, bytes, t)
	t.aioID = id
	t.wake = wakeNone
	s.blockCurrent(BlockIO, "device "+dv.d.Name)

	switch t.wake {
	case wakeIO:
		n, ok := s.kern.AioResult(t.aioID)
		if !ok {
			return 0, EINVAL.Or()
		}
		return n, nil
	case wakeCancel:
		s.TestCancel() // exits
		return 0, EINTR.Or()
	default:
		return 0, EINTR.Or()
	}
}
