package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"pthreads/internal/core"
	"pthreads/internal/io"
	"pthreads/internal/net"
	"pthreads/internal/sem"
	"pthreads/internal/vtime"
)

// The virtual correctness check. Host speed is the only thing this
// benchmark measures, so every virtual-time result is pinned: each run
// reproduces the paper's per-primitive costs, each episode's virtual
// digest (clocks, Stats, fingerprints) must equal every other
// episode's, and, for a seed whose digest is recorded in digests.json,
// the recorded one.

// digestOf hashes the printed form of virtual results. Pass library
// counters through virtualCore and virtualNet, never whole Stats
// structs: those also carry host-side fields (ring sizes, arena chunks,
// runner counts) that a host-side change may move, and new fields a
// later change may add.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// coreVirtual is the part of core.Stats that virtual time decides. It
// leaves out the fields System.Stats documents as host-side: the
// ready-queue ring counters and the continuation, runner and arena
// counters.
type coreVirtual struct {
	ContextSwitches, Preemptions, KernelEntries, DispatcherRuns int64
	ThreadsCreated, ThreadsExited                               int64
	SignalsInternal, SignalsExternal, FakeCalls, Cancellations  int64
	MutexContentions, CondWaits, LostThreadSigs                 int64
	PoolHits, PoolMisses                                        int64
	FDWaits, FDWakeups, FDEINTRs, FDTimeouts, FDBytes           int64
	FDBlockedNS, FDMaxWaitDepth                                 int64
}

func virtualCore(st core.Stats) coreVirtual {
	return coreVirtual{
		ContextSwitches: st.ContextSwitches, Preemptions: st.Preemptions,
		KernelEntries: st.KernelEntries, DispatcherRuns: st.DispatcherRuns,
		ThreadsCreated: st.ThreadsCreated, ThreadsExited: st.ThreadsExited,
		SignalsInternal: st.SignalsInternal, SignalsExternal: st.SignalsExternal,
		FakeCalls: st.FakeCalls, Cancellations: st.Cancellations,
		MutexContentions: st.MutexContentions, CondWaits: st.CondWaits,
		LostThreadSigs: st.LostThreadSigs,
		PoolHits:       st.PoolHits, PoolMisses: st.PoolMisses,
		FDWaits: st.FDWaits, FDWakeups: st.FDWakeups, FDEINTRs: st.FDEINTRs,
		FDTimeouts: st.FDTimeouts, FDBytes: st.FDBytes,
		FDBlockedNS: st.FDBlockedNS, FDMaxWaitDepth: st.FDMaxWaitDepth,
	}
}

// netVirtual is net.Stats field by field, so that a field added to
// net.Stats later does not move the digest.
type netVirtual struct {
	Dials, Accepted, Refused, Resets, BytesSent, BytesRecvd, Segments int64
}

func virtualNet(st net.Stats) netVirtual {
	return netVirtual{st.Dials, st.Accepted, st.Refused, st.Resets, st.BytesSent, st.BytesRecvd, st.Segments}
}

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload -> seed -> digest.
type recordedDigests map[string]map[string]string

func loadDigests() (recordedDigests, error) {
	var d recordedDigests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// checkDigests fails unless every episode produced the same digest and
// it matches the one recorded for (workload, seed). A seed with no
// recorded digest is checked only for agreement between episodes;
// recorded reports whether the recorded check ran.
func checkDigests(rec recordedDigests, workload string, seed int64, got []string) (recorded bool, err error) {
	if len(got) == 0 {
		return false, fmt.Errorf("%s: no episode digest", workload)
	}
	for i, d := range got {
		if d != got[0] {
			return false, fmt.Errorf("%s seed %d: episode %d digest %s differs from episode 0 digest %s", workload, seed, i, d, got[0])
		}
	}
	want, ok := rec[workload][fmt.Sprint(seed)]
	if ok && want != got[0] {
		return true, fmt.Errorf("%s seed %d: digest %s, recorded %s", workload, seed, got[0], want)
	}
	return ok, nil
}

// primitiveProbe reproduces one Table 2 row in a fresh System and
// reports its virtual µs per op.
type primitiveProbe struct {
	name string
	want float64 // vus/op, BENCH_host.json
	tol  float64 // half a unit in want's last quoted digit
	run  func() (float64, error)
}

// probeOps is how many ops each probe averages over; the echo probe
// runs the c10k ladder's 3000 round trips instead.
const (
	probeOps     = 2000
	probeEchoOps = 3000
)

var primitiveProbes = []primitiveProbe{
	{"MutexNoContention", 1.0, 0.005, probeMutex},
	{"SemaphoreSync", 55.3, 0.05, probeSemaphore},
	{"ContextSwitch", 36.7, 0.05, probeSwitch},
	{"echo", 916.25, 0.005, probeEcho},
}

// checkPrimitives runs every probe; a probe's vus/op must equal its
// reference to the digits the reference quotes.
func checkPrimitives() (map[string]float64, error) {
	got := make(map[string]float64, len(primitiveProbes))
	for _, p := range primitiveProbes {
		v, err := p.run()
		if err != nil {
			return got, fmt.Errorf("probe %s: %w", p.name, err)
		}
		got[p.name] = v
		if math.Abs(v-p.want) >= p.tol {
			return got, fmt.Errorf("probe %s: %.4f vus/op, want %.2f", p.name, v, p.want)
		}
	}
	return got, nil
}

func perOp(d vtime.Duration, n int) float64 { return d.Micros() / float64(n) }

func probeMutex() (v float64, err error) {
	s := core.New(core.Config{})
	runErr := s.Run(func() {
		m := s.MustMutex(core.MutexAttr{Name: "probe"})
		v0 := s.Now()
		for range probeOps {
			m.Lock()
			m.Unlock()
		}
		v = perOp(s.Now().Sub(v0), probeOps)
	})
	return v, runErr
}

// probeSemaphore is a P/V ping-pong; one op is half a round.
func probeSemaphore() (v float64, err error) {
	s := core.New(core.Config{})
	runErr := s.Run(func() {
		ping, pong := sem.Must(s, "ping", 0), sem.Must(s, "pong", 0)
		echo, e := s.Create(core.DefaultAttr(), func(any) any {
			for range probeOps {
				ping.P()
				pong.V()
			}
			return nil
		}, nil)
		if e != nil {
			err = e
			return
		}
		v0 := s.Now()
		for range probeOps {
			ping.V()
			pong.P()
		}
		v = perOp(s.Now().Sub(v0), 2*probeOps)
		_, err = s.Join(echo)
	})
	if err == nil {
		err = runErr
	}
	return v, err
}

// probeSwitch yields between two equal-priority threads; one op is
// one switch.
func probeSwitch() (v float64, err error) {
	s := core.New(core.Config{})
	runErr := s.Run(func() {
		stop := false
		partner, e := s.Create(core.DefaultAttr(), func(any) any {
			for !stop {
				s.Yield()
			}
			return nil
		}, nil)
		if e != nil {
			err = e
			return
		}
		s.Yield()
		v0 := s.Now()
		for range probeOps {
			s.Yield()
		}
		v = perOp(s.Now().Sub(v0), 2*probeOps)
		stop = true
		_, err = s.Join(partner)
	})
	if err == nil {
		err = runErr
	}
	return v, err
}

// probeEcho is a 64-byte round trip through the blocking-I/O jacket,
// set up as the c10k ladder's echo rung.
func probeEcho() (v float64, err error) {
	s := core.New(core.Config{})
	runErr := s.Run(func() {
		x := io.New(s, net.Config{RecvBuf: 2048, SendBuf: 2048})
		l, e := x.Listen("echo", 4)
		if e != nil {
			err = e
			return
		}
		server, e := s.Create(core.DefaultAttr(), func(any) any {
			c, err := l.Accept()
			if err != nil {
				return nil
			}
			for {
				n, err := c.Read(64)
				if err != nil {
					break
				}
				c.Write(n)
			}
			c.Close()
			return nil
		}, nil)
		if e != nil {
			err = e
			return
		}
		c, e := x.Dial("echo")
		if e != nil {
			err = e
			return
		}
		v0 := s.Now()
		for range probeEchoOps {
			if _, err = c.Write(64); err != nil {
				return
			}
			for got := 0; got < 64; {
				n, e := c.Read(64)
				if e != nil {
					err = e
					return
				}
				got += n
			}
		}
		v = perOp(s.Now().Sub(v0), probeEchoOps)
		c.Close()
		_, err = s.Join(server)
	})
	if err == nil {
		err = runErr
	}
	return v, err
}
