#include "textflag.h"

// func loadGoid(off uintptr) int64
// Loads the running goroutine's g from thread-local storage and returns
// the int64 stored off bytes into it.
TEXT ·loadGoid(SB), NOSPLIT, $0-16
	MOVQ (TLS), CX
	MOVQ off+0(FP), AX
	MOVQ (CX)(AX*1), AX
	MOVQ AX, ret+8(FP)
	RET
