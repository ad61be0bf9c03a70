package trace

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// minPartEvents is the fewest event records a part of a split decode
// holds. Smaller parts still gain a little on an idle machine (a
// 50K-event section split in two decoded about 10% faster), but a
// server decoding uploads on every core has no idle core to lend, and
// most uploads are smaller than one part.
const minPartEvents = 1 << 16

// autoPartEvents sizes the parts of an n-event section: one part per
// available core, but none smaller than minPartEvents.
func autoPartEvents(n int) int {
	parts := min(runtime.GOMAXPROCS(0), n/minPartEvents)
	if parts < 2 {
		return n
	}
	return (n + parts - 1) / parts
}

// decodeRun decodes len(evs) event records from the front of buf into
// evs, binaryChunk records at a time through Columns.AppendFrame, with
// T and Seq summed from zero. It checks thread IDs against nThreads and
// strict (T, Seq) order within the run. first is the trace index of
// evs[0], for error messages. It returns the number of bytes consumed.
func decodeRun(evs []Event, buf []byte, first, nThreads int) (int, error) {
	var cols Columns
	pos := 0
	var prev Event // the delta chain runs across chunks
	for start := 0; start < len(evs); start += binaryChunk {
		chunk := evs[start:min(start+binaryChunk, len(evs))]
		cols.Reset(len(chunk))
		used, err := cols.AppendFrame(buf[pos:], len(chunk))
		if err != nil {
			return 0, fmt.Errorf("%w (event %d)", err, first+start+cols.Len())
		}
		pos += used
		// AppendFrame sums each chunk's deltas from zero; rebase them
		// onto the last event of the previous chunk.
		baseT, baseSeq := prev.T, prev.Seq
		for j := range chunk {
			e := Event{
				T:      baseT + cols.T[j],
				Seq:    baseSeq + cols.Seq[j],
				Thread: ThreadID(cols.Thread[j]),
				Kind:   EventKind(cols.Kind[j]),
				Obj:    ObjID(cols.Obj[j]),
				Arg:    cols.Arg[j],
			}
			if int(e.Thread) >= nThreads {
				return 0, fmt.Errorf("trace: event %d: thread %d out of range", first+start+j, e.Thread)
			}
			if start+j > 0 && outOfOrder(prev.T, prev.Seq, e.T, e.Seq) {
				return 0, fmt.Errorf("trace: event %d out of order", first+start+j)
			}
			chunk[j] = e
			prev = e
		}
	}
	return pos, nil
}

// decodeParts decodes the event section body into evs in parts of
// partEvents records, all but the first on their own goroutines, and
// reports whether every part was accepted. A false return leaves evs
// partly written; the caller then decodes the section in one part,
// which reports the error.
//
// Each valid record holds exactly six bytes with the high bit clear —
// the last byte of each of its five varints, and the kind — so the
// byte each part's first record starts at is found by counting such
// bytes (partOffsets). A part decodes from there with T and Seq summed
// from zero, and is accepted only if it ends where the scan put the
// next part's start: the parts then hold exactly the records the
// one-part decode reads. Each later part is then rebased onto the
// (T, Seq) of the part before it, and order is checked again on the
// rebased values, across the seams too. Wrapping addition makes the
// rebased values those of the one-part decode, so the two decodes
// accept the same sections with the same events.
func decodeParts(evs []Event, body []byte, partEvents, nThreads int) bool {
	offs := partOffsets(body, partEvents, len(evs))
	if offs == nil {
		return false
	}
	parts := len(offs)
	ok := inParallel(parts, func(p int) bool {
		lo, hi := p*partEvents, min((p+1)*partEvents, len(evs))
		used, err := decodeRun(evs[lo:hi], body[offs[p]:], lo, nThreads)
		return err == nil && (p == parts-1 || offs[p]+used == offs[p+1])
	})
	if !ok {
		return false
	}

	// Part p's base is the last event of part p-1 once that part is
	// rebased onto its own base.
	bases := make([]Event, parts)
	for p := 1; p < parts; p++ {
		last := evs[p*partEvents-1]
		bases[p] = Event{T: bases[p-1].T + last.T, Seq: bases[p-1].Seq + last.Seq}
	}
	// The rebase is spread evenly over as many goroutines as there are
	// parts. Each checks order after its first event; the events each
	// starts at are checked against their predecessors after the join.
	rest := len(evs) - partEvents
	start := func(k int) int { return partEvents + k*rest/parts }
	ok = inParallel(parts, func(k int) bool {
		lo, hi := start(k), start(k+1)
		for j := lo; j < hi; {
			p := j / partEvents
			end := min(hi, (p+1)*partEvents)
			base := bases[p]
			for ; j < end; j++ {
				e := &evs[j]
				e.T += base.T
				e.Seq += base.Seq
				if j > lo && outOfOrder(evs[j-1].T, evs[j-1].Seq, e.T, e.Seq) {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		return false
	}
	for k := range parts {
		if j := start(k); j < len(evs) && outOfOrder(evs[j-1].T, evs[j-1].Seq, evs[j].T, evs[j].Seq) {
			return false
		}
	}
	return true
}

// outOfOrder reports whether (t, seq) fails to follow (prevT, prevSeq)
// in strict order. It takes the fields rather than two Events, which
// the inlined call would copy on every record.
func outOfOrder(prevT Time, prevSeq uint64, t Time, seq uint64) bool {
	return t < prevT || (t == prevT && seq <= prevSeq)
}

// inParallel calls f(0) to f(n-1), all but f(0) on goroutines of their
// own, waits for every call and reports whether all returned true.
func inParallel(n int, f func(i int) bool) bool {
	ok := make([]bool, n)
	var wg sync.WaitGroup
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok[i] = f(i)
		}()
	}
	ok[0] = f(0)
	wg.Wait()
	for _, good := range ok {
		if !good {
			return false
		}
	}
	return true
}

// partOffsets returns the byte offset in body of every partEvents-th
// of n records, starting with record 0, assuming every record is valid
// (six bytes with the high bit clear each). It returns nil when body
// runs out first; the one-part decode then reports the truncation.
func partOffsets(body []byte, partEvents, n int) []int {
	offs := []int{0}
	i, seen := 0, 0
	for k := partEvents; k < n; k += partEvents {
		target := 6 * k
		for i+8 <= len(body) {
			c := bits.OnesCount64(^binary.LittleEndian.Uint64(body[i:]) & contBits)
			if seen+c >= target {
				break
			}
			seen += c
			i += 8
		}
		for ; i < len(body) && seen < target; i++ {
			if body[i] < 0x80 {
				seen++
			}
		}
		if seen < target {
			return nil
		}
		offs = append(offs, i)
	}
	return offs
}
