//go:build !amd64

package clrt

// goidOff has no meaning without a g-reading stub.
const goidOff = 0

// loadGoid has no stub on this architecture. It returns 0, which is
// no user goroutine's id, so probeGoid fails and goid always parses
// the stack.
func loadGoid(uintptr) int64 { return 0 }
