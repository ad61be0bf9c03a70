package clrt

// goidOff is the offset of goid in runtime.g for go1.23–1.24: stack
// (16), stackguard0/1 (16), _panic, _defer and m (24), sched gobuf
// (56), syscallsp/pc/bp and stktopsp (32), param (8), atomicstatus and
// stackLock (8). Other versions may move the field (go1.22 has it at
// 152); probeGoid then fails and goid parses the stack instead.
const goidOff = 160

// loadGoid returns the int64 at byte offset off in the calling
// goroutine's g (goid_amd64.s). g is far larger than goidOff+8 on
// every Go version, so a wrong offset reads a wrong value, never
// faults.
func loadGoid(off uintptr) int64
