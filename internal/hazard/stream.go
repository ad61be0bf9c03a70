package hazard

import (
	"critlock/internal/core"
	"critlock/internal/trace"
)

// FromSegments runs the hazard pass over a segmented trace without
// materializing it. Segments decode one at a time into a reused
// trace.Columns and the machine steps the events straight from the
// columns, in trace order (the hazard rules are order-dependent). On 2
// or more cores the next two segments decode on helper goroutines
// while the machine folds the current one, for sources of 128K events
// or more (core.ForEachSegment); both are joined before FromSegments
// returns, on every path. workers is not read. The report is
// bit-identical at any worker count and to FromTrace on the same
// events.
func FromSegments(src core.SegmentSource, workers int) (*Report, error) {
	m, err := fold(src)
	if err != nil {
		return nil, err
	}
	return m.finish(m.edgeKeys()), nil
}

// Fold runs one hazard fold over src, as FromSegments does, and returns
// both views of its result: the hazard report and the intra-thread lock
// order. A caller that wants both pays for one pass over the events.
func Fold(src core.SegmentSource) (*Report, *LockOrder, error) {
	return views(fold(src))
}

// views builds a folded machine's hazard report and lock order.
func views(m *machine, err error) (*Report, *LockOrder, error) {
	if err != nil {
		return nil, nil, err
	}
	keys := m.edgeKeys()
	return m.finish(keys), m.lockOrder(keys), nil
}

// fold steps a fresh machine through every event of src.
func fold(src core.SegmentSource) (*machine, error) {
	skel := src.Skeleton()
	if skel == nil {
		return nil, trace.ErrEmptyTrace
	}
	if src.NumSegments() == 0 || src.NumEvents() == 0 {
		return nil, trace.ErrEmptyTrace
	}
	m := newMachine(skel)
	if err := core.ForEachSegment(src, m.stepColumns); err != nil {
		return nil, err
	}
	return m, nil
}

// stepColumns folds one decoded segment into the machine. It reads the
// columns directly, sliced to one length so the loop has no bounds
// checks, and refills one reused Event for each step.
func (m *machine) stepColumns(cols *trace.Columns) error {
	T := cols.T
	n := len(T)
	Seq, Th, K, O, A := cols.Seq[:n], cols.Thread[:n], cols.Kind[:n], cols.Obj[:n], cols.Arg[:n]
	var e trace.Event
	for j, t := range T {
		e.T, e.Seq, e.Thread, e.Kind, e.Obj, e.Arg = t, Seq[j], trace.ThreadID(Th[j]), trace.EventKind(K[j]), trace.ObjID(O[j]), A[j]
		if err := m.step(&e); err != nil {
			return err
		}
	}
	return nil
}
