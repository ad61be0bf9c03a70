package hazard

import (
	"critlock/internal/core"
	"critlock/internal/trace"
)

// FromSegments runs the hazard pass over a segmented trace without
// materializing it. Segments are batch-decoded into reused
// trace.Columns and the machine steps the events straight from the
// columns. The machine itself is sequential (the hazard rules are
// order-dependent), so with workers ≥ 2 the decoding goes to workers
// that take segments round-robin, each into a buffer recycled from the
// consumer, while the consumer folds them in segment order. The fold
// order — and therefore the report — is bit-identical at any worker
// count and to FromTrace on the same events.
func FromSegments(src core.SegmentSource, workers int) (*Report, error) {
	m, err := fold(src, workers)
	if err != nil {
		return nil, err
	}
	return m.finish(), nil
}

// fold steps a fresh machine through every event of src, decoding on
// up to workers goroutines.
func fold(src core.SegmentSource, workers int) (*machine, error) {
	skel := src.Skeleton()
	if skel == nil {
		return nil, trace.ErrEmptyTrace
	}
	nseg := src.NumSegments()
	if nseg == 0 || src.NumEvents() == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if workers > nseg {
		workers = nseg
	}
	m := newMachine(skel)

	if workers <= 1 {
		var cols trace.Columns
		for i := 0; i < nseg; i++ {
			if _, err := src.LoadColumns(i, &cols); err != nil {
				return nil, err
			}
			if err := m.stepColumns(&cols); err != nil {
				return nil, err
			}
		}
		return m, nil
	}

	// Worker w decodes segments w, w+workers, ...; its single-slot
	// channel lets it prefetch one segment ahead of the consumer. A
	// worker holds at most two buffers (one queued, one decoding) and
	// the consumer one, so free never blocks a return.
	type slot struct {
		cols *trace.Columns
		err  error
	}
	out := make([]chan slot, workers)
	for w := range out {
		out[w] = make(chan slot, 1)
	}
	free := make(chan *trace.Columns, 2*workers+1)
	stop := make(chan struct{})
	defer close(stop)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := w; i < nseg; i += workers {
				var cols *trace.Columns
				select {
				case cols = <-free:
				default:
					cols = new(trace.Columns)
				}
				_, err := src.LoadColumns(i, cols)
				select {
				case out[w] <- slot{cols: cols, err: err}:
				case <-stop:
					return
				}
				if err != nil {
					return
				}
			}
		}(w)
	}
	for i := 0; i < nseg; i++ {
		s := <-out[i%workers]
		if s.err != nil {
			return nil, s.err
		}
		if err := m.stepColumns(s.cols); err != nil {
			return nil, err
		}
		free <- s.cols
	}
	return m, nil
}

// stepColumns folds one decoded segment into the machine.
func (m *machine) stepColumns(cols *trace.Columns) error {
	for j := range cols.Len() {
		e := cols.Event(j)
		if err := m.step(&e); err != nil {
			return err
		}
	}
	return nil
}
