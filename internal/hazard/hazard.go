// Package hazard predicts synchronization hazards from a recorded
// trace: situations that did not go wrong in this execution but could
// in another interleaving.
//
// The core artifact is the dynamic lock-order graph with cross-thread
// critical sections. Edges come from two sources:
//
//   - intra-thread nesting: a thread obtains lock B while holding
//     lock A (the classical acquisition-order edge A→B), and
//   - cross-thread extension: a lock held across a condition-variable
//     wakeup or a channel hand-off extends its critical section into
//     the woken goroutine, so acquisitions there are still "under" the
//     waker's lock (Sulzmann, arXiv 2512.23552; per-thread lock sets
//     alone miss these cycles).
//
// A strongly connected component of that graph is a feasible deadlock:
// this run completed, but the acquisition order it realized admits an
// interleaving that hangs. Each edge carries a witness — the threads,
// the trace timestamps of both obtains, and the full acquisition stack
// (own plus inherited holds) at the inner obtain.
//
// Two further hazard classes ride on the same forward pass:
//
//   - lost signals: a Signal/Broadcast delivered when no thread is
//     waiting, none ever waits again, and every thread that ever
//     waited on the cond has already exited — provably no possible
//     consumer; and channel values sent but never received by the end
//     of the trace (including buffers abandoned by a close), and
//   - guard inconsistency: a condition variable waited on under two
//     different mutexes, or a channel/barrier operated on by multiple
//     threads under lock sets with empty intersection (Eraser-style).
//
// The pass is a single forward sweep over the canonically ordered
// event sequence and runs identically over an in-memory trace
// (FromTrace) and a segmented one (FromSegments). The streaming form
// batch-decodes each segment into reused columns and steps the events
// straight from them, in segment order, so the report is bit-identical
// at any worker count. The sweep allocates only for state that grows
// with the trace's threads and objects and for what it reports: hold
// labels and witness stacks are rendered when a witness is first
// recorded, not per event.
package hazard

import (
	"errors"
	"fmt"
	"io"

	"critlock/internal/trace"
)

// Report is the deterministic hazard analysis result: every slice is
// sorted, every field is a pure function of the event sequence, so
// reports diff cleanly and pin the streaming/in-memory differential.
type Report struct {
	// Events is the number of events analyzed.
	Events int `json:"events"`
	// Cycles are the strongly connected components of the dynamic
	// lock-order graph — feasible deadlocks.
	Cycles []Cycle `json:"cycles,omitempty"`
	// LostSignals are wakeups with provably no possible consumer.
	LostSignals []LostSignal `json:"lost_signals,omitempty"`
	// GuardIssues are objects accessed under inconsistent lock sets.
	GuardIssues []GuardIssue `json:"guard_issues,omitempty"`
	// Edges is the full dynamic lock-order graph (cycle members and
	// harmless nestings alike), in (from, to) name order.
	Edges []Edge `json:"edges,omitempty"`
}

// Total counts reported hazards (graph edges alone are not hazards:
// nested acquisition is normal; only cycles are).
func (r *Report) Total() int {
	return len(r.Cycles) + len(r.LostSignals) + len(r.GuardIssues)
}

// Edge is one aggregated dynamic lock-order edge: To was obtained
// while From was held (directly or by inheritance).
type Edge struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Count is how many obtains realized the edge; CrossCount how many
	// of those held From only through a cross-thread extension.
	Count      int `json:"count"`
	CrossCount int `json:"cross_count,omitempty"`
	// Witness is the first realization; CrossWitness the first
	// cross-thread one (set when CrossCount > 0).
	Witness      Witness  `json:"witness"`
	CrossWitness *Witness `json:"cross_witness,omitempty"`
}

// Witness pins one realization of an edge to the trace.
type Witness struct {
	// Thread obtained the inner lock (To) at InnerT.
	Thread     trace.ThreadID `json:"thread"`
	ThreadName string         `json:"thread_name"`
	// OuterT is when the outer lock (From) was obtained by its owner;
	// InnerT is when the inner lock was obtained.
	OuterT trace.Time `json:"outer_t"`
	InnerT trace.Time `json:"inner_t"`
	// Held is the acquisition stack at the inner obtain: every lock the
	// obtaining thread held, inherited holds annotated with their owner
	// and the wakeup chain that carried them across.
	Held []string `json:"held"`
	// CrossThread marks an edge whose outer hold belongs to another
	// thread; Owner/OwnerName identify it and Via names the wakeup
	// chain: "chan X hand-off", "chan X slot", "chan X close" or
	// "cond X wakeup".
	CrossThread bool           `json:"cross_thread,omitempty"`
	Owner       trace.ThreadID `json:"owner,omitempty"`
	OwnerName   string         `json:"owner_name,omitempty"`
	Via         string         `json:"via,omitempty"`
}

// Cycle is one feasible deadlock: a strongly connected component of
// the dynamic lock-order graph, with the edges that realize it.
type Cycle struct {
	// Locks are the member lock names, sorted.
	Locks []string `json:"locks"`
	// Edges are the graph edges inside the component.
	Edges []Edge `json:"edges"`
	// CrossThread marks a cycle at least one of whose edges exists only
	// because a critical section extended across threads — invisible to
	// per-thread lock-set analysis.
	CrossThread bool `json:"cross_thread,omitempty"`
}

// LostSignal is a wakeup with no possible consumer.
type LostSignal struct {
	// Kind is "signal" or "broadcast" (condition variables), "send" or
	// "close" (channels).
	Kind   string `json:"kind"`
	Object string `json:"object"`
	// Thread performed the wakeup at T.
	Thread     trace.ThreadID `json:"thread"`
	ThreadName string         `json:"thread_name"`
	T          trace.Time     `json:"t"`
	// Waiters counts the threads that ever waited on the cond — all of
	// them had exited by T (conds only).
	Waiters int `json:"waiters,omitempty"`
	// Undelivered counts channel values never received by the end of
	// the trace (channels only).
	Undelivered int    `json:"undelivered,omitempty"`
	Detail      string `json:"detail"`
}

// GuardIssue is an object accessed under inconsistent lock sets.
type GuardIssue struct {
	Object string `json:"object"`
	// ObjKind is "cond", "chan" or "barrier".
	ObjKind string `json:"obj_kind"`
	Detail  string `json:"detail"`
	// Sites are the two witness operations whose guard sets conflict.
	Sites []GuardSite `json:"sites"`
}

// GuardSite is one witness operation of a guard inconsistency.
type GuardSite struct {
	// Op names the operation ("wait", "send", "recv", "close",
	// "arrive").
	Op         string         `json:"op"`
	Thread     trace.ThreadID `json:"thread"`
	ThreadName string         `json:"thread_name"`
	T          trace.Time     `json:"t"`
	// Held is the (own) lock set at the operation.
	Held []string `json:"held,omitempty"`
	// Mutex is the associated mutex of a cond wait.
	Mutex string `json:"mutex,omitempty"`
}

// FromTrace runs the hazard pass over an in-memory trace.
func FromTrace(tr *trace.Trace) (*Report, error) {
	m, err := foldTrace(tr)
	if err != nil {
		return nil, err
	}
	return m.finish(m.edgeKeys()), nil
}

// FoldTrace is Fold over an in-memory trace: one pass that steps the
// trace's events in place, as FromTrace does, and returns both the
// hazard report and the intra-thread lock order.
func FoldTrace(tr *trace.Trace) (*Report, *LockOrder, error) {
	return views(foldTrace(tr))
}

// foldTrace steps a fresh machine through every event of tr.
func foldTrace(tr *trace.Trace) (*machine, error) {
	if tr == nil {
		return nil, errors.New("hazard: nil trace")
	}
	if len(tr.Events) == 0 {
		return nil, trace.ErrEmptyTrace
	}
	m := newMachine(tr)
	for i := range tr.Events {
		if err := m.step(&tr.Events[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// WriteText renders the report in the human-readable form used by
// `cla -hazards` and `clalint -dynamic`.
func WriteText(w io.Writer, r *Report) {
	if r.Total() == 0 {
		fmt.Fprintf(w, "no dynamic hazards predicted (%d events, %d lock-order edges)\n",
			r.Events, len(r.Edges))
		return
	}
	fmt.Fprintf(w, "%d dynamic hazard(s) predicted from %d events:\n", r.Total(), r.Events)
	for _, c := range r.Cycles {
		kind := "feasible deadlock"
		if c.CrossThread {
			kind = "feasible deadlock (cross-thread: invisible to per-thread lock sets)"
		}
		fmt.Fprintf(w, "  %s: cycle %v\n", kind, c.Locks)
		for _, e := range c.Edges {
			wit := e.Witness
			if e.CrossWitness != nil {
				wit = *e.CrossWitness
			}
			fmt.Fprintf(w, "    %s -> %s  ×%d  witness: %s obtained %q at t=%d holding %v",
				e.From, e.To, e.Count, wit.ThreadName, e.To, wit.InnerT, wit.Held)
			if wit.CrossThread {
				fmt.Fprintf(w, " (%q held by %s since t=%d, carried via %s)",
					e.From, wit.OwnerName, wit.OuterT, wit.Via)
			}
			fmt.Fprintln(w)
		}
	}
	for _, l := range r.LostSignals {
		fmt.Fprintf(w, "  lost %s on %s: %s (by %s at t=%d)\n",
			l.Kind, l.Object, l.Detail, l.ThreadName, l.T)
	}
	for _, g := range r.GuardIssues {
		fmt.Fprintf(w, "  guard inconsistency on %s %s: %s\n", g.ObjKind, g.Object, g.Detail)
		for _, s := range g.Sites {
			fmt.Fprintf(w, "    %s by %s at t=%d", s.Op, s.ThreadName, s.T)
			if s.Mutex != "" {
				fmt.Fprintf(w, " under mutex %s", s.Mutex)
			} else {
				fmt.Fprintf(w, " holding %v", s.Held)
			}
			fmt.Fprintln(w)
		}
	}
}
