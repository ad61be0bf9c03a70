package trace

import (
	"encoding/binary"
	"fmt"
)

// Columns is a struct-of-arrays view of an event run. The streaming
// analyzer decodes segment frames straight into this layout so that
// the forward passes can scan one field per branch without
// materializing an Event struct per record, and so that batch varint
// decoding can run over a contiguous byte slice (e.g. an mmapped
// segment body).
//
// All slices share the same length; entry i is event i of the run.
type Columns struct {
	T      []Time
	Seq    []uint64
	Thread []int32
	Kind   []uint8
	Obj    []int32
	Arg    []int64
}

// Len reports the number of decoded events.
func (c *Columns) Len() int { return len(c.T) }

// Reset empties the columns, keeping capacity for about n events.
func (c *Columns) Reset(n int) {
	if cap(c.T) < n {
		c.T = make([]Time, 0, n)
		c.Seq = make([]uint64, 0, n)
		c.Thread = make([]int32, 0, n)
		c.Kind = make([]uint8, 0, n)
		c.Obj = make([]int32, 0, n)
		c.Arg = make([]int64, 0, n)
		return
	}
	c.T = c.T[:0]
	c.Seq = c.Seq[:0]
	c.Thread = c.Thread[:0]
	c.Kind = c.Kind[:0]
	c.Obj = c.Obj[:0]
	c.Arg = c.Arg[:0]
}

// extend grows every column by n entries and returns the first new
// index. The new entries are written by index — one bounds check the
// compiler can hoist, instead of six per-append capacity tests per
// event.
func (c *Columns) extend(n int) int {
	base := len(c.T)
	c.T = extendCol(c.T, base+n)
	c.Seq = extendCol(c.Seq, base+n)
	c.Thread = extendCol(c.Thread, base+n)
	c.Kind = extendCol(c.Kind, base+n)
	c.Obj = extendCol(c.Obj, base+n)
	c.Arg = extendCol(c.Arg, base+n)
	return base
}

// extendCol sets s's length to n, reallocating with headroom if its
// capacity is short.
func extendCol[E any](s []E, n int) []E {
	if cap(s) < n {
		t := make([]E, n, n+n/4)
		copy(t, s)
		return t
	}
	return s[:n]
}

// setLen sets every column's length to n (capacity permitting).
func (c *Columns) setLen(n int) {
	c.T = c.T[:n]
	c.Seq = c.Seq[:n]
	c.Thread = c.Thread[:n]
	c.Kind = c.Kind[:n]
	c.Obj = c.Obj[:n]
	c.Arg = c.Arg[:n]
}

// Event materializes entry i as an Event value.
func (c *Columns) Event(i int) Event {
	return Event{
		T:      c.T[i],
		Seq:    c.Seq[i],
		Thread: ThreadID(c.Thread[i]),
		Kind:   EventKind(c.Kind[i]),
		Obj:    ObjID(c.Obj[i]),
		Arg:    c.Arg[i],
	}
}

// AppendEvents appends events to the columns.
func (c *Columns) AppendEvents(evs []Event) {
	for i := range evs {
		e := &evs[i]
		c.T = append(c.T, e.T)
		c.Seq = append(c.Seq, e.Seq)
		c.Thread = append(c.Thread, int32(e.Thread))
		c.Kind = append(c.Kind, uint8(e.Kind))
		c.Obj = append(c.Obj, int32(e.Obj))
		c.Arg = append(c.Arg, e.Arg)
	}
}

// fastMask selects the high (continuation) bits of the five varint
// fields in an event record when every field fits in one byte: offsets
// 0 (ΔT), 1 (ΔSeq), 2 (thread), 4 (obj) and 5 (arg). Offset 3 is the
// raw kind byte and has no continuation bit.
const fastMask = 0x0000_8080_0080_8080

// AppendFrame batch-decodes count delta-encoded event records from the
// front of buf — the segment frame payload layout, where the delta
// chain resets at the frame start — appends them to the columns, and
// returns the number of bytes consumed. Validation matches DecodeEvent:
// invalid kinds and out-of-range thread/obj IDs are rejected, and a
// record that runs past buf reports ErrTruncated. On error the columns
// keep the records decoded before the failing one, so Len locates it.
//
// The hot path notices that nearly all records encode every varint
// field in a single byte (small deltas, small IDs): one 8-byte load and
// a mask test then decode the whole 6-byte record without looping.
func (c *Columns) AppendFrame(buf []byte, count int) (int, error) {
	base := c.extend(count)
	T := c.T[base : base+count]
	Seq := c.Seq[base : base+count]
	Th := c.Thread[base : base+count]
	K := c.Kind[base : base+count]
	O := c.Obj[base : base+count]
	A := c.Arg[base : base+count]
	var prevT Time
	var prevSeq uint64
	b := buf
	for n := 0; n < count; {
		// Paired fast path: with two single-byte records ahead and
		// enough frame left to load both 8-byte windows, decode the
		// pair in one iteration. Validity checks run before any store;
		// on failure fall through to the single-record path, which
		// re-checks and reports the error at the right index.
		if n+1 < count && len(b) >= 14 {
			w1 := binary.LittleEndian.Uint64(b)
			w2 := binary.LittleEndian.Uint64(b[6:])
			if (w1|w2)&fastMask == 0 {
				k1 := uint8(w1 >> 24)
				k2 := uint8(w2 >> 24)
				o1 := int64((w1 >> 32) & 0x7f)
				o1 = o1>>1 ^ -(o1 & 1)
				o2 := int64((w2 >> 32) & 0x7f)
				o2 = o2>>1 ^ -(o2 & 1)
				if EventKind(k1).Valid() && EventKind(k2).Valid() &&
					o1 >= int64(NoObj) && o2 >= int64(NoObj) {
					d := int64(w1 & 0x7f)
					a := int64((w1 >> 40) & 0x7f)
					prevT += Time(d>>1 ^ -(d & 1))
					prevSeq += (w1 >> 8) & 0x7f
					T[n] = prevT
					Seq[n] = prevSeq
					Th[n] = int32((w1 >> 16) & 0x7f)
					K[n] = k1
					O[n] = int32(o1)
					A[n] = a>>1 ^ -(a & 1)
					d = int64(w2 & 0x7f)
					a = int64((w2 >> 40) & 0x7f)
					prevT += Time(d>>1 ^ -(d & 1))
					prevSeq += (w2 >> 8) & 0x7f
					T[n+1] = prevT
					Seq[n+1] = prevSeq
					Th[n+1] = int32((w2 >> 16) & 0x7f)
					K[n+1] = k2
					O[n+1] = int32(o2)
					A[n+1] = a>>1 ^ -(a & 1)
					b = b[12:]
					n += 2
					continue
				}
			}
		}
		if len(b) >= 8 {
			if w := binary.LittleEndian.Uint64(b); w&fastMask == 0 {
				kind := uint8(w >> 24)
				if !EventKind(kind).Valid() {
					c.setLen(base + n)
					return 0, fmt.Errorf("trace: invalid event kind %d", kind)
				}
				b0 := int64(w & 0x7f)
				b4 := int64((w >> 32) & 0x7f)
				b5 := int64((w >> 40) & 0x7f)
				obj := b4>>1 ^ -(b4 & 1)
				if obj < int64(NoObj) {
					c.setLen(base + n)
					return 0, fmt.Errorf("trace: event obj %d out of range", obj)
				}
				prevT += Time(b0>>1 ^ -(b0 & 1))
				prevSeq += (w >> 8) & 0x7f
				T[n] = prevT
				Seq[n] = prevSeq
				Th[n] = int32((w >> 16) & 0x7f)
				K[n] = kind
				O[n] = int32(obj)
				A[n] = b5>>1 ^ -(b5 & 1)
				b = b[6:]
				n++
				continue
			}
		}
		// General path: any field may span several varint bytes, or
		// the record sits within 8 bytes of the end of the frame,
		// where the 8-byte load cannot reach.
		e, m, err := DecodeEvent(b, Event{T: prevT, Seq: prevSeq})
		if err != nil {
			c.setLen(base + n)
			return 0, err
		}
		prevT, prevSeq = e.T, e.Seq
		T[n] = e.T
		Seq[n] = e.Seq
		Th[n] = int32(e.Thread)
		K[n] = uint8(e.Kind)
		O[n] = int32(e.Obj)
		A[n] = e.Arg
		b = b[m:]
		n++
	}
	return len(buf) - len(b), nil
}
