package main

import (
	"errors"
	"fmt"

	"pthreads/internal/core"
	"pthreads/internal/io"
	"pthreads/internal/net"
	"pthreads/internal/vtime"
)

// echo-parked: one host where a few goroutine-thread echo pairs do
// Write/ReadTimeout round trips of seeded sizes beside a large
// population of continuation readers parked in ContReadTimeout on
// their own connections. Each feeder round the main thread writes to a
// seeded handful of parked readers (cont wake, runner bind, re-park),
// while a steady trickle of parked timeouts fires and re-arms. No
// mutex, cond or create runs in the timed phase. One op is one active
// round trip.

// echoReadTimeout bounds each active read; no round trip comes close.
const echoReadTimeout = vtime.Second

// reader is one parked continuation reader's state (its k.Arg), so
// the re-park step is a plain function and allocates nothing.
type reader struct {
	ep  *echoEpisode
	c   *io.Conn
	idx int
	n   int
}

// echoEpisode is the state one episode shares between its threads.
type echoEpisode struct {
	in       *echoInputs
	x        *io.IO
	tr       *tracer
	root     int32
	msgs     int64 // messages parked readers consumed
	timeouts int64 // parked timeouts that fired
	closed   int64 // parked readers that saw EOF
	errs     int64 // unexpected parked-read errors
}

type echoParked struct{ in *echoInputs }

// readerStart is a parked reader's first step: dial, then park.
func readerStart(k *core.Cont) {
	r := k.Arg.(*reader)
	c, err := r.ep.x.Dial("park")
	if err != nil {
		r.ep.errs++
		return
	}
	r.c = c
	r.park(k)
}

func (r *reader) park(k *core.Cont) {
	ep := r.ep
	sp := ep.tr.open(spContRead, ep.root, 0, k.Sys(), 0)
	r.c.ContReadTimeout(k, echoMaxRead, ep.in.parkTimeout(r.idx, r.n), readerStep)
	ep.tr.close(sp, k.Sys())
}

// readerStep runs when a parked read completes: count it and re-park.
func readerStep(k *core.Cont) {
	r := k.Arg.(*reader)
	ep := r.ep
	switch {
	case k.Err == nil:
		ep.msgs++
	case errors.Is(k.Err, core.ETIMEDOUT):
		ep.timeouts++
	case errors.Is(k.Err, io.EOF):
		ep.closed++
		r.c.Close()
		return
	default:
		ep.errs++
		return
	}
	r.n++
	r.park(k)
}

func (w *echoParked) episode(m *meter, tr *tracer) error {
	in := w.in
	ep := m.ep
	m.beginSetup()
	s := core.New(core.Config{PoolSize: in.Parked + 2*in.Pairs + 8})
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	err := s.Run(func() {
		x := io.New(s, net.Config{})
		st := &echoEpisode{in: in, x: x, tr: tr, root: -1}
		prio := s.Self().Priority()

		// Echo servers: one goroutine thread per active pair.
		l, err := x.Listen("echo", in.Pairs)
		if err != nil {
			fail(err)
			return
		}
		serverAttr := core.DefaultAttr()
		for p := range in.Pairs {
			serverAttr.Name = fmt.Sprintf("server%d", p)
			if _, err := s.Create(serverAttr, func(any) any {
				c, err := l.Accept()
				if err != nil {
					return nil
				}
				for {
					sp := tr.open(spRead, st.root, 0, s, 0)
					n, err := c.Read(echoMaxRead)
					tr.close(sp, s)
					if err != nil {
						break
					}
					sp = tr.open(spWrite, st.root, 0, s, 0)
					_, err = c.Write(n)
					tr.close(sp, s)
					if err != nil {
						break
					}
				}
				c.Close()
				return nil
			}, nil); err != nil {
				fail(err)
				return
			}
		}

		// The parked population: each reader runs at a higher priority,
		// dials, and parks before the main thread accepts the next.
		lp, err := x.Listen("park", 16)
		if err != nil {
			fail(err)
			return
		}
		readerAttr := core.DefaultAttr()
		readerAttr.Priority = prio + 1
		held := make([]*io.Conn, in.Parked)
		readers := make([]reader, in.Parked)
		for i := range held {
			readers[i] = reader{ep: st, idx: i}
			if _, err := s.CreateCont(readerAttr, readerStart, &readers[i]); err != nil {
				fail(err)
				return
			}
			if held[i], err = lp.Accept(); err != nil {
				fail(err)
				return
			}
		}

		clients := make([]*io.Conn, in.Pairs)
		for p := range clients {
			if clients[p], err = x.Dial("echo"); err != nil {
				fail(err)
				return
			}
		}
		remaining := in.Pairs
		var rtVirt vtime.Duration
		clientAttr := core.DefaultAttr()
		for p, c := range clients {
			clientAttr.Name = fmt.Sprintf("client%d", p)
			if _, err := s.Create(clientAttr, func(any) any {
				defer func() { remaining-- }()
				for i, size := range in.Sizes[p] {
					op := int32(p*len(in.Sizes[p]) + i + 1)
					v0 := s.Now()
					sp := tr.open(spWrite, st.root, op, s, 0)
					_, err := c.Write(size)
					tr.close(sp, s)
					for got := 0; err == nil && got < size; {
						var n int
						sp := tr.open(spRead, st.root, op, s, 0)
						n, err = c.ReadTimeout(echoMaxRead, echoReadTimeout)
						tr.close(sp, s)
						got += n
					}
					rtVirt += s.Now().Sub(v0)
					if err == nil {
						m.op()
					} else {
						ep.failed++
					}
				}
				return nil
			}, nil); err != nil {
				fail(err)
				return
			}
		}
		m.endSetup(in.Parked + 2*in.Pairs + 1)
		m.gauge = func() int { return s.Clock().Pending() }

		var lib libCounters
		lib.addSystem(s)
		lib.addNet(x.Stack().Stats())
		st.root = tr.open(spEpisode, -1, 0, nil, -1)
		m.beginTimed(lib, s.Now())
		feed := newRNG(in.Seed, streamEchoFeed)
		for remaining > 0 {
			for range feed.count(in.MsgsMean) {
				if _, err := held[feed.intn(in.Parked)].Write(in.MsgBytes); err != nil {
					fail(err)
				}
			}
			s.Sleep(in.Round)
		}
		lib = libCounters{}
		lib.addSystem(s)
		lib.addNet(x.Stack().Stats())
		m.endTimed(lib, s.Now())
		tr.close(st.root, nil)

		if st.errs > 0 {
			fail(fmt.Errorf("echo-parked: %d parked reads failed", st.errs))
		}
		ep.digest = digestOf(s.Now(), virtualCore(s.Stats()), virtualNet(x.Stack().Stats()), st.msgs, st.timeouts, rtVirt)
		s.Shutdown(nil)
	})
	if err == nil {
		err = runErr
	}
	return err
}
