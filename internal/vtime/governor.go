package vtime

// Multi-clock coordination. A single simulated host owns its clock
// outright: Advance/AdvanceTo/Step move `now` immediately. When several
// hosts (each with its own Clock) share one causally-consistent virtual
// timeline — the fabric's virtual datacenter — each clock must ask a
// central authority before crossing the frontier up to which it has been
// proven safe to run. The Governor is that authority.
//
// The protocol is a conservative parallel-DES lease: the governor hands
// each clock a *lease* — a timestamp below which the clock may free-run
// without asking again, because every other host's clock plus the
// minimum cross-host event latency lies at or beyond it. The clock
// caches the lease, so the steady-state cost of governance on a host
// that is behind its peers is one comparison per advance. With no
// governor attached (every single-host run), all three advance paths
// take their original branches untouched: byte-identical behavior.
//
// Grant may return less than asked (a partial grant — the caller loops,
// re-checking its timer queue for events other hosts landed while it
// was parked) or more than asked (a pause jump — the fabric froze the
// host for a fault window, so the pending charge completes late by the
// width of the window).

// Governor arbitrates clock advancement across hosts. Grant is called
// with the clock's current time and the target it wants to reach, and
// returns how far it may actually move (grant, always > now) together
// with a new lease (always >= grant) below which future advances need
// no further permission. Grant returns only once the advance is safe;
// until then an implementation holds the calling host (the fabric
// suspends the host's running execution context back to its fleet
// driver) — that is the mechanism by which only one host runs at a time.
type Governor interface {
	Grant(now, want Time) (grant, lease Time)
}

// SetGovernor attaches (or, with nil, detaches) a governor. The lease
// resets to the current instant, so the very next advance beyond `now`
// asks for permission.
func (c *Clock) SetGovernor(g Governor) {
	c.gov = g
	c.lease = c.now
}

// advanceGov completes a charge to target t under a governor. Charges
// model committed work (instruction costs): they never stop early at
// timer expiries, so the loop only ends at t — or beyond it, when a
// pause jump carries the completion past the target.
func (c *Clock) advanceGov(t Time) {
	for c.now < t {
		if t <= c.lease {
			c.now = t
			return
		}
		g, l := c.gov.Grant(c.now, t)
		if g <= c.now || l < g {
			panic("vtime: governor grant out of order")
		}
		c.lease = l
		c.now = g
		if g >= t {
			return
		}
	}
}

// advanceToGov idles the clock toward t under a governor. Unlike a
// charge, the idle path is truncatable: if another host lands an event
// earlier than t while this clock is parked, the advance stops at the
// arrival so the host can process it. t may be Infinity ("sleep until
// anything arrives").
func (c *Clock) advanceToGov(t Time) {
	for c.now < t {
		limit := t
		if at, ok := c.NextExpiry(); ok {
			if at <= c.now {
				return // a newly-landed event is already due
			}
			if at < limit {
				limit = at
			}
		}
		if limit <= c.lease {
			c.now = limit
			return
		}
		g, l := c.gov.Grant(c.now, limit)
		if g <= c.now || l < g {
			panic("vtime: governor grant out of order")
		}
		c.lease = l
		c.now = g
		if g >= limit {
			return
		}
	}
}

// stepGov is the governed Step: like the ungoverned one it stops at the
// next timer expiry, but it may also advance past the target under a
// pause jump (the caller observes advanced > d and treats the excess as
// inflated computation time).
func (c *Clock) stepGov(d Duration) (advanced Duration, due bool) {
	start := c.now
	target := c.now.Add(d)
	for {
		if c.now >= target {
			return c.now.Sub(start), false
		}
		limit := target
		stopDue := false
		if at, ok := c.NextExpiry(); ok {
			if at <= c.now {
				return c.now.Sub(start), true
			}
			if at <= limit {
				limit = at
				stopDue = true
			}
		}
		if limit <= c.lease {
			c.now = limit
			return c.now.Sub(start), stopDue
		}
		g, l := c.gov.Grant(c.now, limit)
		if g <= c.now || l < g {
			panic("vtime: governor grant out of order")
		}
		c.lease = l
		c.now = g
		if g >= limit {
			return c.now.Sub(start), stopDue
		}
	}
}
