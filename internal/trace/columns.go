package trace

import (
	"encoding/binary"
	"math/bits"
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
	n := len(evs)
	base := c.extend(n)
	T := c.T[base : base+n]
	Seq := c.Seq[base : base+n]
	Th := c.Thread[base : base+n]
	K := c.Kind[base : base+n]
	O := c.Obj[base : base+n]
	A := c.Arg[base : base+n]
	for i := range evs {
		e := &evs[i]
		T[i] = e.T
		Seq[i] = e.Seq
		Th[i] = int32(e.Thread)
		K[i] = uint8(e.Kind)
		O[i] = int32(e.Obj)
		A[i] = e.Arg
	}
}

// fastMask selects the high (continuation) bits of the five varint
// fields in an event record when every field fits in one byte: offsets
// 0 (ΔT), 1 (ΔSeq), 2 (thread), 4 (obj) and 5 (arg). Offset 3 is the
// raw kind byte and has no continuation bit.
const fastMask = 0x0000_8080_0080_8080

// contBits selects the continuation bit of each byte of an 8-byte
// load; tailMask is fastMask without the ΔT byte, applied once the ΔT
// varint has been shifted out.
const (
	contBits = 0x8080_8080_8080_8080
	tailMask = fastMask >> 8
)

// AppendFrame batch-decodes count delta-encoded event records from the
// front of buf — the segment frame payload layout, where the delta
// chain resets at the frame start — appends them to the columns, and
// returns the number of bytes consumed. Validation matches DecodeEvent:
// invalid kinds and out-of-range thread/obj IDs are rejected, and a
// record that runs past buf reports ErrTruncated. On error the columns
// keep the records decoded before the failing one, so Len locates it.
//
// Two record shapes skip the varint loop, each decoded from one 8-byte
// load and a mask test. In the narrow shape every varint field takes
// one byte (small deltas, small IDs): simulated traces are nearly all
// narrow, and two such records decode per iteration. The wide shape
// has a two- or three-byte ΔT (|ΔT| < 2^20 ns) and the other fields in
// one byte each: a recording stamped with wall-clock nanoseconds has
// its events microseconds apart, so nearly all of its records take
// this shape. Anything else goes to DecodeEvent.
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
		// Paired fast path: with two narrow records ahead and enough
		// frame left to load both 8-byte windows, decode the pair in
		// one iteration. Validity checks run before any store; on
		// failure fall through to the single-record path.
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
			// Single record, narrow or wide: a ΔT of one to three bytes
			// and five one-byte fields. The first clear continuation
			// bit ends the ΔT varint; sh is its length past the first
			// byte, in bits. An invalid kind or obj falls through to
			// DecodeEvent, which reports it.
			w := binary.LittleEndian.Uint64(b)
			sh := uint(bits.TrailingZeros64(^w&contBits)) - 7
			if sh <= 16 && (w>>(sh+8))&tailMask == 0 {
				r := w >> (sh + 8) // ΔSeq, thread, kind, obj, arg
				kind := uint8(r >> 16)
				o := int64((r >> 24) & 0x7f)
				o = o>>1 ^ -(o & 1)
				if EventKind(kind).Valid() && o >= int64(NoObj) {
					// Gather three 7-bit groups, keep the ΔT's own.
					d := int64((w&0x7f | (w>>1)&0x3f80 | (w>>2)&0x1fc000) & (1<<(sh-sh/8+7) - 1))
					a := int64((r >> 32) & 0x7f)
					prevT += Time(d>>1 ^ -(d & 1))
					prevSeq += r & 0x7f
					T[n] = prevT
					Seq[n] = prevSeq
					Th[n] = int32((r >> 8) & 0x7f)
					K[n] = kind
					O[n] = int32(o)
					A[n] = a>>1 ^ -(a & 1)
					b = b[sh/8+6:]
					n++
					continue
				}
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
