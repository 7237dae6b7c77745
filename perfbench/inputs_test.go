package main

import (
	"reflect"
	"testing"
)

// feederTargets draws the first n parked readers the feeder would
// message in an episode.
func feederTargets(in *echoInputs, n int) []int {
	r := newRNG(in.Seed, streamEchoFeed)
	out := make([]int, n)
	for i := range out {
		out[i] = r.intn(in.Parked)
	}
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"sync-pool": func(seed int64) any { return genPool(seed, 500) },
		"echo-parked": func(seed int64) any {
			in := genEcho(seed, 1000, 2, 50)
			timeouts := make([]int64, 100)
			for i := range timeouts {
				timeouts[i] = int64(in.parkTimeout(i, i%3))
			}
			return []any{in, timeouts, feederTargets(in, 100)}
		},
		"fleet-dc": func(seed int64) any { return genFleet(seed, 100, 3) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 gave two different inputs", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

func TestPoolMixStaysInItsBand(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		mix := genPool(seed, 1).Mix
		if mix.Locks[0] < 10.8 || mix.Locks[0] > 13.2 {
			t.Fatalf("seed %d: %.2f uncontended none pairs per task, want 12±10%%", seed, mix.Locks[0])
		}
		// Uncontended locks are the majority of primitive calls.
		others := mix.Locks[1] + mix.Locks[2] + mix.SemPV + mix.Yields + mix.Create + mix.Kill + mix.Raise
		if mix.Locks[0] <= others {
			t.Fatalf("seed %d: none pairs %.2f not the majority (others %.2f)", seed, mix.Locks[0], others)
		}
	}
}

func TestParkTimeoutClasses(t *testing.T) {
	in := genEcho(3, 10, 1, 1)
	short := 0
	for i := range 10000 {
		d := in.parkTimeout(i, i%7)
		switch {
		case d >= echoShortMax/600 && d < echoShortMax:
			short++
		case d >= echoLongMin && d < echoLongMin*3/2:
		default:
			t.Fatalf("reader %d: timeout %v in neither class", i, d)
		}
		if (d < echoShortMax) != (in.parkTimeout(i, i%7+1) < echoShortMax) {
			t.Fatalf("reader %d changed timeout class between parks", i)
		}
	}
	if got := float64(short) / 10000; got < in.ShortFrac-0.01 || got > in.ShortFrac+0.01 {
		t.Errorf("%.3f of readers have short timeouts, want %.3f", got, in.ShortFrac)
	}
}
