package report

import (
	"fmt"
	"strings"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// Narrate renders the critical path as a readable dependency story in
// forward time order: which thread carried the path, and every hop —
// "at 17000 ns the path moves from rad-7 to rad-3 (lock tq[0].qlock)".
// maxHops caps the output (0 = all); long convoys are the common case,
// so consecutive hops through the same object are folded.
func Narrate(an *core.Analysis, maxHops int) string {
	tr := an.Trace
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d ns over %d thread hops\n",
		an.CP.Length, len(an.CP.JumpLog))

	if len(an.CP.JumpLog) == 0 {
		fmt.Fprintf(&b, "  the whole path stays on thread %q\n", tr.Thread(an.CP.LastThread).Name)
		return b.String()
	}

	first := an.CP.JumpLog[0]
	fmt.Fprintf(&b, "  starts on %q\n", tr.Thread(first.To).Name)

	hops := 0
	i := 0
	for i < len(an.CP.JumpLog) {
		j := an.CP.JumpLog[i]
		// Fold a run of consecutive hops through the same object.
		run := 1
		for i+run < len(an.CP.JumpLog) &&
			an.CP.JumpLog[i+run].Kind == j.Kind &&
			an.CP.JumpLog[i+run].Obj == j.Obj {
			run++
		}
		last := an.CP.JumpLog[i+run-1]
		what := j.Kind.String()
		if j.Obj != trace.NoObj {
			what += " " + tr.ObjName(j.Obj)
		}
		if run == 1 {
			fmt.Fprintf(&b, "  %8d ns  → %q, released by %q (%s)\n",
				j.T, tr.Thread(j.From).Name, tr.Thread(j.To).Name, what)
		} else {
			fmt.Fprintf(&b, "  %8d ns  %d hops through %s (a %d ns convoy), ending on %q\n",
				j.T, run, what, last.T-j.T, tr.Thread(last.From).Name)
		}
		i += run
		hops++
		if maxHops > 0 && hops >= maxHops {
			fmt.Fprintf(&b, "  ... (%d more hops)\n", len(an.CP.JumpLog)-i)
			break
		}
	}
	fmt.Fprintf(&b, "  ends on %q at %d ns\n", tr.Thread(an.CP.LastThread).Name, an.Start+an.CP.WallTime)
	return b.String()
}
