// Package pairing owns the FIFO rules that decide which earlier
// operation a channel or condition-variable operation pairs with: the
// waker resolution of the paper's §IV.B for channels and conds. Core's
// pass 1 attaches the waker's event index to each operation; the
// hazard pass attaches the holds the waker carries into the thread it
// wakes (Sulzmann's cross-thread critical sections). Both get the
// pairing from here, so the two cannot drift apart.
//
// Every type is generic over that payload and keeps only outstanding
// state: completed pairings are dropped as the counters advance, so
// memory is O(outstanding operations), never O(trace).
package pairing

import "critlock/internal/trace"

// Queue is a FIFO that keeps its backing array: a pop advances head,
// and a push into a full array slides the live entries down once at
// least half of it is popped, instead of reallocating.
type Queue[T any] struct {
	buf  []T
	head int
}

// Len is the number of live entries.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// At returns the i-th live entry.
func (q *Queue[T]) At(i int) T { return q.buf[q.head+i] }

// Push appends v.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the first live entry; the queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.reset()
	}
	return v
}

// removeAt drops the i-th live entry, keeping the others in order.
func (q *Queue[T]) removeAt(i int) {
	j := q.head + i
	copy(q.buf[j:], q.buf[j+1:])
	var zero T
	q.buf[len(q.buf)-1] = zero
	q.buf = q.buf[:len(q.buf)-1]
	if q.head == len(q.buf) {
		q.reset()
	}
}

// reset empties the queue, keeping its array.
func (q *Queue[T]) reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// Chan pairs the completion events of one channel by FIFO counting:
//
//   - value receive #r takes the value of send #r, whether handed off
//     directly or drained from the buffer;
//   - a blocked send #s on a capacity-C channel was admitted by receive
//     #(s-C), the receive that freed its buffer slot (for C = 0, its
//     rendezvous partner #s itself);
//   - a receive of the closed marker takes no send: it pairs with the
//     close.
//
// At a rendezvous both completions carry the same instant and either
// may come first. A receive that completes before its send is owed:
// the send settles it when it arrives.
type Chan[P any] struct {
	capacity int
	// sends holds the completed sends no receive has taken, sends
	// #nRecv..#nSend-1: at the end of a trace, the undelivered values.
	sends Queue[P]
	nSend int
	// recvs holds value receives #recvBase..#nRecv-1, pruned below
	// #(nSend-C), which no later send can be admitted by. The owed
	// receives #nSend..#nRecv-1 are always among them.
	recvs     Queue[P]
	recvBase  int
	nRecv     int
	closed    bool
	lastClose P
}

// NewChan returns the pairing state of a channel with the given buffer
// capacity; a negative capacity counts as 0.
func NewChan[P any](capacity int) *Chan[P] {
	return &Chan[P]{capacity: max(capacity, 0)}
}

// Admitter returns the payload of receive #(s-C) for the next send #s:
// the receive that admitted it, if that send blocked. ok is false when
// that receive has not completed.
func (c *Chan[P]) Admitter() (recv P, ok bool) {
	r := c.nSend - c.capacity
	if r < c.recvBase || r >= c.nRecv {
		return recv, false
	}
	return c.recvs.At(r - c.recvBase), true
}

// Send records the next send completion with payload p. If its receive
// completed first, Send returns that receive's payload and the
// hand-off is settled; otherwise p waits for the receive.
func (c *Chan[P]) Send(p P) (owed P, ok bool) {
	s := c.nSend
	c.nSend++
	if s < c.nRecv {
		owed, ok = c.recvs.At(s-c.recvBase), true
	} else {
		c.sends.Push(p)
	}
	c.prune()
	return owed, ok
}

// Next returns the payload of the send the next value receive takes,
// if that send has completed. It changes nothing; Recv returns the
// same payload.
func (c *Chan[P]) Next() (send P, ok bool) {
	if c.sends.Len() == 0 {
		return send, false
	}
	return c.sends.At(0), true
}

// Recv records the next value receive with payload p and returns the
// payload of the send it takes, if that send has completed. If not,
// the receive is owed and the send returns p.
func (c *Chan[P]) Recv(p P) (send P, ok bool) {
	if c.sends.Len() > 0 {
		send, ok = c.sends.Pop(), true
	}
	c.recvs.Push(p)
	c.nRecv++
	c.prune()
	return send, ok
}

func (c *Chan[P]) prune() {
	for c.recvBase < c.nSend-c.capacity && c.recvs.Len() > 0 {
		c.recvs.Pop()
		c.recvBase++
	}
}

// Close records a close with payload p; a later close replaces it.
func (c *Chan[P]) Close(p P) { c.closed, c.lastClose = true, p }

// Closed returns the payload of the latest close, the partner of every
// receive of the closed marker.
func (c *Chan[P]) Closed() (P, bool) { return c.lastClose, c.closed }

// Undelivered returns the number of completed sends no receive has
// taken, and the payload of the oldest.
func (c *Chan[P]) Undelivered() (n int, first P) {
	if n = c.sends.Len(); n > 0 {
		first = c.sends.At(0)
	}
	return n, first
}

// Cond pairs the wakeups of one condition variable with its waiters in
// FIFO order: Signal wakes the longest waiting thread, Broadcast wakes
// every waiting thread, and a wait that ends with no wakeup paired to
// it (a spurious wakeup, or an unmatched signal) has no waker.
type Cond[P any] struct {
	waiting Queue[trace.ThreadID]
	wakerOf map[trace.ThreadID]P
}

// Wait records that thread t began waiting.
func (c *Cond[P]) Wait(t trace.ThreadID) { c.waiting.Push(t) }

// Waiters is the number of threads waiting for a wakeup.
func (c *Cond[P]) Waiters() int { return c.waiting.Len() }

// Signal pairs wakeup payload p with the longest waiting thread, if
// any.
func (c *Cond[P]) Signal(p P) {
	if c.waiting.Len() > 0 {
		c.wake(c.waiting.Pop(), p)
	}
}

// Broadcast pairs wakeup payload p with every waiting thread.
func (c *Cond[P]) Broadcast(p P) {
	for i := 0; i < c.waiting.Len(); i++ {
		c.wake(c.waiting.At(i), p)
	}
	c.waiting.reset()
}

func (c *Cond[P]) wake(t trace.ThreadID, p P) {
	if c.wakerOf == nil {
		c.wakerOf = make(map[trace.ThreadID]P)
	}
	c.wakerOf[t] = p
}

// WaitEnd records that thread t stopped waiting and returns the
// payload of the wakeup paired with it, if any. Either way t leaves
// the queue of waiting threads.
func (c *Cond[P]) WaitEnd(t trace.ThreadID) (waker P, ok bool) {
	if waker, ok = c.wakerOf[t]; ok {
		delete(c.wakerOf, t)
	}
	for i := 0; i < c.waiting.Len(); i++ {
		if c.waiting.At(i) == t {
			c.waiting.removeAt(i)
			break
		}
	}
	return waker, ok
}
