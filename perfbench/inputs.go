package main

import (
	"pthreads/internal/vtime"
)

// Input generation. Every workload input is a pure function of the
// seed: the library never sees the seed itself, only the task lists,
// sizes, timeouts and fault rates generated here. The seed moves the
// proportions inside narrow bands around a nominal mix, so two seeds
// give different inputs of about the same host cost.

// rng is splitmix64: stable across Go releases, unlike math/rand's
// unexported generators.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, stream).
func newRNG(seed int64, stream uint64) *rng {
	return &rng{s: mix64(uint64(seed)*0x9e3779b97f4a7c15 ^ stream)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// mix64 is splitmix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// jitter returns nominal scaled by a factor drawn from [1-rel, 1+rel].
func (r *rng) jitter(nominal, rel float64) float64 {
	return nominal * (1 + rel*(2*r.float()-1))
}

// count draws a non-negative count with the given mean: uniform over
// [0, 2*mean], so the mean holds exactly in expectation.
func (r *rng) count(mean float64) int {
	return int(r.float() * (2*mean + 1))
}

// Streams of the seed, one per input family.
const (
	streamPoolMix uint64 = iota + 1
	streamPoolTasks
	streamEchoMix
	streamEchoSizes
	streamEchoFeed
	streamEchoTimeout
	streamFleet
)

// poolTask is one sync-pool task: how many of each primitive it runs.
type poolTask struct {
	Locks  [3]uint8 // uncontended lock/unlock pairs: none, inherit, ceiling
	SemPV  uint8    // uncontended semaphore P/V pairs
	Yields uint8    // sched_yield calls
	Create bool     // pooled Create+Join of a short higher-priority child
	Kill   bool     // pthread_kill to the worker's suspended peer
	Raise  bool     // kill(getpid()) demultiplexed to a peer
}

// poolMix is the seed-chosen proportion of each primitive family.
type poolMix struct {
	Locks          [3]float64 // mean pairs per task
	SemPV, Yields  float64    // mean calls per task
	Create, Kill   float64    // probability per task
	Raise          float64    // probability per task
	Workers, Queue int
}

type poolInputs struct {
	Mix   poolMix
	Tasks []poolTask
}

// genPool generates one episode's task list for sync-pool.
func genPool(seed int64, tasks int) *poolInputs {
	r := newRNG(seed, streamPoolMix)
	mix := poolMix{
		Locks:   [3]float64{r.jitter(12, 0.1), r.jitter(2, 0.1), r.jitter(2, 0.1)},
		SemPV:   r.jitter(2, 0.1),
		Yields:  r.jitter(0.5, 0.1),
		Create:  r.jitter(0.2, 0.1),
		Kill:    r.jitter(0.1, 0.1),
		Raise:   r.jitter(0.02, 0.1),
		Workers: 4,
		Queue:   8,
	}
	in := &poolInputs{Mix: mix, Tasks: make([]poolTask, tasks)}
	t := newRNG(seed, streamPoolTasks)
	for i := range in.Tasks {
		task := &in.Tasks[i]
		for p := range task.Locks {
			task.Locks[p] = uint8(t.count(mix.Locks[p]))
		}
		task.SemPV = uint8(t.count(mix.SemPV))
		task.Yields = uint8(t.count(mix.Yields))
		task.Create = t.float() < mix.Create
		task.Kill = t.float() < mix.Kill
		task.Raise = t.float() < mix.Raise
	}
	return in
}

// echoInputs parameterizes echo-parked. Parked readers draw each
// re-park timeout from parkTimeout, and the feeder draws its targets
// from a fresh streamEchoFeed generator each episode, so both are
// functions of the seed as well.
type echoInputs struct {
	Seed      int64
	Parked    int            // continuation readers parked in ContReadTimeout
	Pairs     int            // active goroutine-thread echo pairs
	Sizes     [][]int        // per pair, the byte count of each round trip
	Round     vtime.Duration // feeder period
	MsgsMean  float64        // mean parked readers messaged per round
	ShortFrac float64        // share of parked readers whose timeouts fire
	MsgBytes  int            // bytes per message to a parked reader
}

// Parked timeouts. A short one is uniform in [echoShortMax/600,
// echoShortMax); it stays below the timer wheel's 2^36 ns level, so
// expiries cascade in small steps every 2^30 ns. A long one is uniform
// in [echoLongMin, 1.5*echoLongMin): it keeps its reader on the wheel
// and never fires within an episode.
const (
	echoShortMax = 60 * vtime.Second
	echoLongMin  = 2 * 3600 * vtime.Second
)

// echoMaxRead bounds every read in echo-parked; sizes stay below it.
const echoMaxRead = 512

func genEcho(seed int64, parked, pairs, opsPerPair int) *echoInputs {
	r := newRNG(seed, streamEchoMix)
	in := &echoInputs{
		Seed:      seed,
		Parked:    parked,
		Pairs:     pairs,
		Round:     vtime.Millisecond,
		MsgsMean:  r.jitter(2, 0.1),
		ShortFrac: r.jitter(0.1, 0.1),
		MsgBytes:  16 + r.intn(48),
	}
	s := newRNG(seed, streamEchoSizes)
	in.Sizes = make([][]int, pairs)
	for p := range in.Sizes {
		in.Sizes[p] = make([]int, opsPerPair)
		for i := range in.Sizes[p] {
			in.Sizes[p][i] = 32 + s.intn(224)
		}
	}
	return in
}

// parkTimeout is reader i's timeout for its n-th park. Whether the
// reader's timeouts are short depends on i alone.
func (in *echoInputs) parkTimeout(i, n int) vtime.Duration {
	class := mix64(uint64(in.Seed)<<40 ^ uint64(i) ^ streamEchoTimeout<<60)
	h := mix64(uint64(in.Seed)<<40 ^ uint64(i)<<20 ^ uint64(n) ^ streamEchoTimeout<<56)
	if float64(class>>11)/(1<<53) < in.ShortFrac {
		lo := uint64(echoShortMax / 600)
		return vtime.Duration(lo + h%(uint64(echoShortMax)-lo))
	}
	return echoLongMin + vtime.Duration(h%uint64(echoLongMin/2))
}

// fleetInputs parameterizes fleet-dc.
type fleetInputs struct {
	Users, Reqs int
	Loss        []float64        // per lb->replica link
	Service     []vtime.Duration // per replica
	Start       []vtime.Duration // per user: first dial
	Think       [][]vtime.Duration
}

const (
	fleetReplicas    = 4
	fleetClientHosts = 4
	fleetReqBytes    = 128
	fleetRespBytes   = 512
	// fleetBoot is the virtual instant before which no user dials: every
	// client host has spawned its users by then.
	fleetBoot = 100 * vtime.Millisecond
	// fleetThinkMin is the shortest think time; think times are uniform
	// in [fleetThinkMin, 2*fleetThinkMin). 2,000 users then offer about
	// 330 requests per virtual second, half of what the balancer's
	// single CPU forwards (EXPERIMENTS.md E30), so no backlog overflows.
	fleetThinkMin = 4 * vtime.Second
)

func genFleet(seed int64, users, reqs int) *fleetInputs {
	r := newRNG(seed, streamFleet)
	in := &fleetInputs{Users: users, Reqs: reqs}
	for range fleetReplicas {
		in.Loss = append(in.Loss, r.jitter(0.02, 0.1))
		in.Service = append(in.Service, vtime.Duration(r.jitter(200, 0.1))*vtime.Microsecond)
	}
	in.Start = make([]vtime.Duration, users)
	in.Think = make([][]vtime.Duration, users)
	for u := range in.Start {
		in.Start[u] = fleetBoot + vtime.Duration(r.intn(int(fleetThinkMin)))
		in.Think[u] = make([]vtime.Duration, reqs)
		for q := range in.Think[u] {
			in.Think[u][q] = fleetThinkMin + vtime.Duration(r.intn(int(fleetThinkMin)))
		}
	}
	return in
}
