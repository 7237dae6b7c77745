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
// A clock that asks records its outstanding ask — the target, and
// whether arrivals can cut it short — and parks in Grant. A grant may
// fall short of the ask (a partial grant). The clock would then re-check
// its timer queue for events other hosts landed while it was parked and
// ask again, with nothing run in between, so the governor settles such a
// grant on the parked clock instead (Settle) and the clock stays parked
// on the re-ask. Grant returns only the grant that ends the ask: a host
// resumes only when its advance would return. A grant may also exceed
// the ask (a pause jump — the fabric froze the host for a fault window,
// so the pending charge completes late by the width of the window).

// Governor arbitrates clock advancement across hosts. Grant is called
// with the clock's current time and the limit it asks to reach, and
// returns how far it may actually move (grant, always > now) together
// with a new lease (always >= grant) below which future advances need
// no further permission. Grant returns only once the advance is safe and
// the grant ends the ask: every partial grant before it is applied to
// the parked clock with Settle. Until then an implementation holds the
// calling host (the fabric suspends the host's running execution context
// back to its fleet driver) — that is the mechanism by which only one
// host runs at a time.
type Governor interface {
	Grant(now, want Time) (grant, lease Time)
}

// govAsk is a clock's outstanding governed advance.
type govAsk struct {
	target Time // where the advance is headed
	limit  Time // what the clock asks for: target, or an earlier expiry
	trunc  bool // arrivals cut it short (idle, Step); a charge runs on
	due    bool // limit is a timer expiry
	parked bool // the clock waits in Grant for this ask
}

// SetGovernor attaches (or, with nil, detaches) a governor. The lease
// resets to the current instant, so the very next advance beyond `now`
// asks for permission.
func (c *Clock) SetGovernor(g Governor) {
	c.gov = g
	c.lease = c.now
}

// plan is one pass of a governed advance toward a.target from now under
// lease: the advance either ends at the returned instant (more false),
// or asks the governor for a.limit (more true). A charge asks for its
// target; an idle advance or a Step asks for the target lowered to the
// next expiry, and ends at once if an event is already due.
func (c *Clock) plan(a *govAsk, now, lease Time) (end Time, more bool) {
	a.limit, a.due = a.target, false
	if now >= a.target {
		return now, false
	}
	if a.trunc {
		if at, ok := c.NextExpiry(); ok {
			if at <= now {
				a.due = true
				return now, false // a newly-landed event is already due
			}
			if at <= a.limit {
				a.limit, a.due = at, true
			}
		}
	}
	if a.limit <= lease {
		return a.limit, false
	}
	return now, true
}

// settle applies grant (g, l) to the outstanding ask: a grant reaching
// the limit ends it at g (past the target, under a pause jump);
// otherwise the advance continues from g under l — it ends within the
// new lease, or asks again (more true, next holding the re-ask).
func (c *Clock) settle(g, l Time) (next govAsk, end Time, more bool) {
	if g <= c.now || l < g {
		panic("vtime: governor grant out of order")
	}
	next = c.ask
	if g >= next.limit {
		return next, g, false
	}
	end, more = c.plan(&next, g, l)
	return next, end, more
}

// Settle applies grant (g, l) to the clock parked in Grant, exactly as
// the clock would on resuming. If the ask continues, the clock stays
// parked on the re-ask, now at g under lease l, and Settle returns the
// limit it asks for next (more true). If the ask ends, Settle leaves the
// clock untouched (more false): the governor returns (g, l) from Grant
// and the clock applies them as it resumes.
func (c *Clock) Settle(g, l Time) (limit Time, more bool) {
	if !c.ask.parked {
		panic("vtime: Settle on a clock not parked in Grant")
	}
	next, _, more := c.settle(g, l)
	if more {
		c.ask, c.now, c.lease = next, g, l
	}
	return next.limit, more
}

// govern runs a governed advance toward target, asking the governor at
// most once, and reports whether it stopped at a timer expiry. trunc
// marks the advances that arrivals cut short: the idle path and Step.
// A charge (committed work) never stops early at an expiry, so it ends
// only at the target — or beyond it, when a pause jump carries the
// completion past.
func (c *Clock) govern(target Time, trunc bool) (due bool) {
	c.ask = govAsk{target: target, trunc: trunc}
	end, more := c.plan(&c.ask, c.now, c.lease)
	if more {
		c.ask.parked = true
		g, l := c.gov.Grant(c.now, c.ask.limit)
		c.ask.parked = false
		if c.ask, end, more = c.settle(g, l); more {
			panic("vtime: governor returned a partial grant")
		}
		c.lease = l
	}
	c.now = end
	return c.ask.due
}
