package main

import (
	"fmt"
	"time"

	"pthreads/internal/core"
	"pthreads/internal/fabric"
	"pthreads/internal/io"
	"pthreads/internal/vtime"
)

// fleet-dc: the E30 datacenter with the span recorder and rollups on.
// A load balancer forwards each connection to the next of four
// replicas on a thread of its own; four client hosts run the closed-
// loop users, each issuing sequential requests with a seeded think
// time between them, over lb->replica links with seeded loss. One op is
// one completed client request; the client bodies stamp host time at
// each completion.

// fleetMaxDialRetries bounds a refused dial's retries before the
// request counts as failed.
const fleetMaxDialRetries = 20

type fleetDC struct{ in *fleetInputs }

// fleetEpisode is the state the hosts of one episode share. The fleet
// runs one goroutine at a time, so plain fields are safe.
type fleetEpisode struct {
	m       *meter
	tr      *tracer
	root    int32
	spawned int // client hosts done spawning their users
	lats    vtime.Duration
	served  [fleetReplicas]int64
	retries int64
	hosts   []*fabric.Host
}

// readFull reads until total bytes arrived.
func (fe *fleetEpisode) readFull(h *fabric.Host, c *io.Conn, total int, op int32) bool {
	for got := 0; got < total; {
		sp := fe.tr.open(spRead, fe.root, op, h.Sys, h.ID)
		n, err := c.Read(total)
		fe.tr.close(sp, h.Sys)
		if err != nil {
			return false
		}
		got += n
	}
	return true
}

func (fe *fleetEpisode) lbBody(h *fabric.Host) error {
	l, err := h.IO.Listen("http", 256)
	if err != nil {
		return err
	}
	for i := 0; ; i++ {
		sp := fe.tr.open(spAccept, fe.root, 0, h.Sys, h.ID)
		c, err := l.Accept()
		fe.tr.close(sp, h.Sys)
		if err != nil {
			return err
		}
		target := fmt.Sprintf("r%d:serve", i%fleetReplicas)
		attr := core.DefaultAttr()
		attr.Name = fmt.Sprintf("fw%d", i)
		sp = fe.tr.open(spCreate, fe.root, 0, h.Sys, h.ID)
		_, err = h.Sys.Create(attr, func(any) any {
			defer c.Close()
			if !fe.readFull(h, c, fleetReqBytes, 0) {
				return nil
			}
			sp := fe.tr.open(spDial, fe.root, 0, h.Sys, h.ID)
			b, err := h.IO.Dial(target)
			fe.tr.close(sp, h.Sys)
			if err != nil {
				return nil
			}
			defer b.Close()
			sp = fe.tr.open(spWrite, fe.root, 0, h.Sys, h.ID)
			_, err = b.Write(fleetReqBytes)
			fe.tr.close(sp, h.Sys)
			for got := 0; err == nil && got < fleetRespBytes; {
				var n int
				sp := fe.tr.open(spRead, fe.root, 0, h.Sys, h.ID)
				n, err = b.Read(fleetRespBytes)
				fe.tr.close(sp, h.Sys)
				if err == nil {
					got += n
					sp := fe.tr.open(spWrite, fe.root, 0, h.Sys, h.ID)
					_, err = c.Write(n)
					fe.tr.close(sp, h.Sys)
				}
			}
			return nil
		}, nil)
		fe.tr.close(sp, h.Sys)
		if err != nil {
			return err
		}
	}
}

func (fe *fleetEpisode) replicaBody(idx int, service vtime.Duration) func(h *fabric.Host) error {
	return func(h *fabric.Host) error {
		l, err := h.IO.Listen("serve", 256)
		if err != nil {
			return err
		}
		for i := 0; ; i++ {
			sp := fe.tr.open(spAccept, fe.root, 0, h.Sys, h.ID)
			c, err := l.Accept()
			fe.tr.close(sp, h.Sys)
			if err != nil {
				return err
			}
			attr := core.DefaultAttr()
			attr.Name = fmt.Sprintf("srv%d", i)
			sp = fe.tr.open(spCreate, fe.root, 0, h.Sys, h.ID)
			_, err = h.Sys.Create(attr, func(any) any {
				defer c.Close()
				if !fe.readFull(h, c, fleetReqBytes, 0) {
					return nil
				}
				h.Sys.Compute(service)
				fe.served[idx]++
				sp := fe.tr.open(spWrite, fe.root, 0, h.Sys, h.ID)
				c.Write(fleetRespBytes)
				fe.tr.close(sp, h.Sys)
				return nil
			}, nil)
			fe.tr.close(sp, h.Sys)
			if err != nil {
				return err
			}
		}
	}
}

// clientBody runs users [first, first+count): each sleeps to its start
// instant, then issues its requests back to back with think times.
func (fe *fleetEpisode) clientBody(in *fleetInputs, first, count int) func(h *fabric.Host) error {
	return func(h *fabric.Host) error {
		sys := h.Sys
		ths := make([]*core.Thread, count)
		for j := range ths {
			u := first + j
			attr := core.DefaultAttr()
			attr.Name = fmt.Sprintf("u%d", u)
			th, err := sys.Create(attr, func(any) any {
				sys.Sleep(in.Start[u] - vtime.Duration(sys.Now()))
				for q, think := range in.Think[u] {
					op := int32(u*in.Reqs + q + 1)
					if fe.request(h, op) {
						fe.m.op()
					} else {
						fe.m.ep.failed++
					}
					sys.Sleep(think)
				}
				return nil
			}, nil)
			if err != nil {
				return err
			}
			ths[j] = th
		}
		if fe.spawned++; fe.spawned == fleetClientHosts {
			fe.endSetup(in)
		}
		for _, th := range ths {
			if _, err := sys.Join(th); err != nil {
				return err
			}
		}
		return nil
	}
}

// endSetup runs on the last client host to finish spawning: every host
// is parked, so the whole fleet's counters can be read.
func (fe *fleetEpisode) endSetup(in *fleetInputs) {
	fe.m.endSetup(in.Users + fleetReplicas + 1 + fleetClientHosts)
	fe.m.gauge = func() int {
		n := 0
		for _, h := range fe.hosts {
			n += h.Sys.Clock().Pending()
		}
		return n
	}
	fe.m.beginTimed(fe.counters(), vtime.Time(fleetBoot))
}

func (fe *fleetEpisode) counters() libCounters {
	var lib libCounters
	for _, h := range fe.hosts {
		lib.addSystem(h.Sys)
		lib.addNet(h.IO.Stack().Stats())
	}
	return lib
}

// request is one closed-loop request through the balancer.
func (fe *fleetEpisode) request(h *fabric.Host, op int32) bool {
	sys := h.Sys
	start := sys.Now()
	var c *io.Conn
	for try := 0; ; try++ {
		sp := fe.tr.open(spDial, fe.root, op, sys, h.ID)
		var err error
		c, err = h.IO.Dial("lb:http")
		fe.tr.close(sp, sys)
		if err == nil {
			break
		}
		if try == fleetMaxDialRetries {
			return false
		}
		fe.retries++
		sys.Sleep(vtime.Duration(try+1) * vtime.Millisecond)
	}
	sp := fe.tr.open(spWrite, fe.root, op, sys, h.ID)
	_, err := c.Write(fleetReqBytes)
	fe.tr.close(sp, sys)
	ok := err == nil && fe.readFull(h, c, fleetRespBytes, op)
	c.Close()
	if ok {
		fe.lats += sys.Now().Sub(start)
	}
	return ok
}

func (w *fleetDC) episode(m *meter, tr *tracer) error {
	in := w.in
	ep := m.ep
	fe := &fleetEpisode{m: m, tr: tr, root: -1}
	cfg := fabric.Config{Seed: 11, Obs: fabric.ObsConfig{Spans: true, Rollup: true}}
	cfg.Hosts = append(cfg.Hosts, fabric.HostSpec{Name: "lb", Body: fe.lbBody})
	for i := range fleetReplicas {
		name := fmt.Sprintf("r%d", i)
		cfg.Hosts = append(cfg.Hosts, fabric.HostSpec{Name: name, Body: fe.replicaBody(i, in.Service[i])})
		cfg.Loss = append(cfg.Loss, fabric.LinkLoss{From: "lb", To: name, Rate: in.Loss[i]})
	}
	first := 0
	for i := range fleetClientHosts {
		count := in.Users / fleetClientHosts
		if i < in.Users%fleetClientHosts {
			count++
		}
		name := fmt.Sprintf("c%d", i)
		cfg.Drain = append(cfg.Drain, name)
		cfg.Hosts = append(cfg.Hosts, fabric.HostSpec{Name: name, Body: fe.clientBody(in, first, count)})
		first += count
	}

	m.beginSetup()
	sp := tr.open(spFabricNew, -1, 0, nil, -1)
	f, err := fabric.New(cfg)
	tr.close(sp, nil)
	if err != nil {
		return err
	}
	fe.hosts = f.Hosts()
	fe.root = tr.open(spFabricRun, -1, 0, nil, -1)
	runT0 := time.Now()
	err = f.Run()
	runNS := int64(time.Since(runT0))
	tr.close(fe.root, nil)
	if err != nil {
		return err
	}
	if fe.spawned != fleetClientHosts {
		return fmt.Errorf("fleet-dc: only %d of %d client hosts spawned their users", fe.spawned, fleetClientHosts)
	}
	var makespan vtime.Time
	clocks := make([]vtime.Time, len(fe.hosts))
	stats := make([]coreVirtual, len(fe.hosts))
	nets := make([]netVirtual, len(fe.hosts))
	for i, h := range fe.hosts {
		clocks[i] = h.Sys.Now()
		stats[i] = virtualCore(h.Sys.Stats())
		nets[i] = virtualNet(h.IO.Stack().Stats())
		makespan = max(makespan, clocks[i])
	}
	m.endTimed(fe.counters(), makespan)

	rep := f.ObsReport()
	ep.fabric.RunNS = runNS
	for i := range rep.Grants {
		ep.fabric.Grants += rep.Grants[i].Grants
		ep.fabric.Retransmits += rep.Wire[i].Retransmits
	}
	for _, s := range rep.Spans {
		ep.fabric.ObsSpans += int64(len(s))
	}
	ep.digest = digestOf(f.Fingerprint(), clocks, stats, nets, fe.lats, fe.served, fe.retries, ep.ops, ep.failed)
	return nil
}
