package io

import (
	"pthreads/internal/core"
	"pthreads/internal/obs"
	"pthreads/internal/vtime"
)

// Continuation entry points for the jacket layer. ContRead is Conn.Read
// with the suspension expressed as a declared continuation op (k.FDOp):
// a thread blocked in it holds no goroutine, only its TCB plus the
// pooled per-call state below. Both share Read's halves around the
// jacket call (readBegin, readEnd), threaded through k.Env instead of a
// closure so steady-state reads allocate nothing.

// contReadState carries one ContRead call's jacket state across the
// park. Arena-backed and recycled when the call completes.
type contReadState struct {
	c       *Conn
	op      *connOp
	ref     obs.SpanRef
	then    core.ContFunc
	prevEnv any
}

// ContRead declares a blocking read of up to max bytes as the step's
// continuation op; then runs when the read completes, with k.N holding
// the count and k.Err the result (EOF at end of stream). Semantics,
// charges, and traces are identical to Conn.Read.
func (c *Conn) ContRead(k *core.Cont, max int, then core.ContFunc) {
	c.contRead(k, max, 0, then)
}

// ContReadTimeout is ContRead bounded by d of virtual time (ETIMEDOUT).
func (c *Conn) ContReadTimeout(k *core.Cont, max int, d vtime.Duration, then core.ContFunc) {
	c.contRead(k, max, d, then)
}

func (c *Conn) contRead(k *core.Cont, max int, d vtime.Duration, then core.ContFunc) {
	if max < 0 {
		k.N, k.Err = 0, core.EINVAL.Or()
		then(k)
		return
	}
	op, ref := c.readBegin(max)
	st := c.x.contReads.Get()
	st.c, st.op, st.ref, st.then, st.prevEnv = c, op, ref, then, k.Env
	k.Env = st
	k.FDOp(c.nc.FD(), core.FDRead, c.readWhat, d, op, contReadDone)
}

// contReadDone is the completion step shared by every ContRead (no
// per-call closure): readEnd on the jacket result, then the caller's
// continuation.
func contReadDone(k *core.Cont) {
	st := k.Env.(*contReadState)
	c, op, ref, then := st.c, st.op, st.ref, st.then
	k.Env = st.prevEnv
	c.x.contReads.Put(st)
	k.N, k.Err = c.readEnd(op, ref, k.Err)
	then(k)
}
