package clrt

import (
	"runtime"
	"sync/atomic"
)

// goidFromG is set at package init when loadGoid(goidOff) reads the
// same goroutine ids as the runtime.Stack parse; goid then reads the
// id straight from the runtime's g. Tests clear it to force the parse.
var goidFromG atomic.Bool

func init() { goidFromG.Store(probeGoid(goidOff)) }

// goid returns the calling goroutine's id: one load from the runtime's
// g (a few ns) when the init probe verified the offset, the
// runtime.Stack parse (several µs) otherwise. The two agree by
// construction, so procs entries stay valid whichever path wrote them.
func goid() int64 {
	if goidFromG.Load() {
		return loadGoid(goidOff)
	}
	return stackGoid()
}

// goidPath names the lookup goid uses, for the trace's clrt.goid meta.
func goidPath() string {
	if goidFromG.Load() {
		return "g"
	}
	return "stack"
}

// stackGoid parses the calling goroutine's id out of its stack header
// ("goroutine N [running]:"). There is no supported API for this; the
// parse is the standard trick and costs several microseconds per call
// (3.4–6.6 µs measured with go1.24 on a shared 2-vCPU x86-64 VM).
func stackGoid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = "goroutine "
	s := buf[len(prefix):n]
	var id int64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// probeGoid reports whether loadGoid(off) matches the stack parse on
// the calling goroutine and on two fresh ones.
func probeGoid(off uintptr) bool {
	match := func() bool { return loadGoid(off) == stackGoid() }
	if !match() {
		return false
	}
	ok := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() { ok <- match() }()
	}
	return <-ok && <-ok
}
