package pairing

import (
	"testing"

	"critlock/internal/trace"
)

func TestQueue(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	for i := 0; i < 5; i++ {
		if got := q.Pop(); got != i {
			t.Fatalf("pop %d = %d", i, got)
		}
	}
	q.removeAt(1) // drops 6
	// The array is full and over half popped: this push slides the live
	// entries down instead of growing.
	c := cap(q.buf)
	for i := 8; len(q.buf) < c; i++ {
		q.Push(i)
	}
	q.Push(100)
	want := []int{5, 7}
	for i := 8; len(want) < q.Len()-1; i++ {
		want = append(want, i)
	}
	want = append(want, 100)
	if q.Len() != len(want) {
		t.Fatalf("len = %d, want %d", q.Len(), len(want))
	}
	for i, w := range want {
		if q.At(i) != w {
			t.Fatalf("at(%d) = %d, want %d", i, q.At(i), w)
		}
	}
	if cap(q.buf) != c {
		t.Errorf("push into a half-popped full array grew it: cap %d → %d", c, cap(q.buf))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if q.head != 0 || len(q.buf) != 0 {
		t.Errorf("drained queue not reset: head=%d len=%d", q.head, len(q.buf))
	}
}

// op is one step of a channel table test: the method, the payload it
// records (sends, recvs and closes use their own label), and the
// payload and ok it must return.
type op struct {
	do   string // "admit", "send", "recv", "close", "closed", "next"
	p    string
	want string // "" means ok must be false
}

func runChan(t *testing.T, capacity int, ops []op, undelivered int) {
	t.Helper()
	c := NewChan[string](capacity)
	for i, o := range ops {
		var got string
		var ok bool
		switch o.do {
		case "admit":
			got, ok = c.Admitter()
		case "send":
			got, ok = c.Send(o.p)
		case "recv":
			got, ok = c.Recv(o.p)
		case "next":
			got, ok = c.Next()
		case "close":
			c.Close(o.p)
			continue
		case "closed":
			got, ok = c.Closed()
		}
		if ok != (o.want != "") || got != o.want {
			t.Fatalf("op %d %s(%s) = (%q, %t), want %q", i, o.do, o.p, got, ok, o.want)
		}
	}
	if n, _ := c.Undelivered(); n != undelivered {
		t.Errorf("undelivered = %d, want %d", n, undelivered)
	}
}

func TestChan(t *testing.T) {
	t.Run("rendezvous/send-first", func(t *testing.T) {
		runChan(t, 0, []op{
			{do: "admit"}, // no receive has completed
			{do: "send", p: "s0"},
			{do: "next", want: "s0"},
			{do: "recv", p: "r0", want: "s0"},
			{do: "next"},
		}, 0)
	})
	t.Run("rendezvous/recv-first", func(t *testing.T) {
		// The receive completes first: it is owed, and admits the send.
		runChan(t, 0, []op{
			{do: "recv", p: "r0"},
			{do: "admit", want: "r0"},
			{do: "send", p: "s0", want: "r0"},
			{do: "next"},
		}, 0)
	})
	t.Run("owed", func(t *testing.T) {
		runChan(t, 0, []op{
			{do: "recv", p: "r0"},
			{do: "recv", p: "r1"},
			{do: "send", p: "s0", want: "r0"},
			{do: "admit", want: "r1"},
			{do: "send", p: "s1", want: "r1"},
			{do: "send", p: "s2"},
		}, 1)
	})
	t.Run("capacity-2", func(t *testing.T) {
		// Sends #0 and #1 fill the buffer; blocked send #2 was admitted
		// by receive #0, which freed a slot, and send #3 by receive #1.
		runChan(t, 2, []op{
			{do: "send", p: "s0"},
			{do: "send", p: "s1"},
			{do: "admit"},
			{do: "recv", p: "r0", want: "s0"},
			{do: "admit", want: "r0"},
			{do: "send", p: "s2"},
			{do: "recv", p: "r1", want: "s1"},
			{do: "admit", want: "r1"},
			{do: "send", p: "s3"},
			{do: "recv", p: "r2", want: "s2"},
		}, 1)
	})
	t.Run("negative-capacity", func(t *testing.T) {
		runChan(t, -3, []op{
			{do: "recv", p: "r0"},
			{do: "admit", want: "r0"},
			{do: "send", p: "s0", want: "r0"},
		}, 0)
	})
	t.Run("closed", func(t *testing.T) {
		runChan(t, 1, []op{
			{do: "closed"},
			{do: "send", p: "s0"},
			{do: "close", p: "c0"},
			{do: "closed", want: "c0"},
			{do: "close", p: "c1"},
			{do: "closed", want: "c1"},
		}, 1)
	})
}

func TestCond(t *testing.T) {
	var c Cond[string]
	end := func(th trace.ThreadID, want string) {
		t.Helper()
		got, ok := c.WaitEnd(th)
		if ok != (want != "") || got != want {
			t.Fatalf("WaitEnd(%d) = (%q, %t), want %q", th, got, ok, want)
		}
	}
	c.Signal("lost") // nobody waits
	c.Wait(1)
	c.Wait(2)
	c.Wait(3)
	c.Signal("a") // wakes the longest waiter, 1
	if c.Waiters() != 2 {
		t.Fatalf("waiters = %d, want 2", c.Waiters())
	}
	end(2, "") // spurious: no waker, and 2 leaves the queue
	if c.Waiters() != 1 {
		t.Fatalf("waiters = %d, want 1", c.Waiters())
	}
	end(1, "a")
	end(1, "") // the waker was consumed
	c.Wait(1)
	c.Broadcast("b")
	if c.Waiters() != 0 {
		t.Fatalf("waiters after broadcast = %d", c.Waiters())
	}
	end(3, "b")
	end(1, "b")
	c.Signal("late")
	end(2, "")
}

// FuzzPairing runs random operation sequences on a Chan and a Cond and
// checks every answer against a naive model that keeps the whole
// history and looks entries up by index, the way the reference oracle
// (internal/core/reference_test.go) resolves wakers.
func FuzzPairing(f *testing.F) {
	f.Add(int8(0), []byte{1, 0, 0, 1, 2, 1})
	f.Add(int8(2), []byte{0, 0, 0, 1, 1, 1, 1, 2, 1, 0})
	f.Add(int8(1), []byte{3, 19, 35, 4, 6, 22, 5, 38, 6, 3, 3, 6})
	f.Fuzz(func(t *testing.T, capacity int8, ops []byte) {
		c := NewChan[int](int(capacity))
		var cond Cond[int]
		capa := max(int(capacity), 0)

		// Channel model: every send, value receive and close ever made.
		var sends, recvs []int
		closed, lastClose := false, 0
		// Cond model: every wait (live until woken or ended) and every
		// wakeup, plus where each thread's last WaitEnd left the wakeup
		// history.
		type wait struct {
			th   trace.ThreadID
			live bool
		}
		type wake struct {
			th trace.ThreadID
			p  int
		}
		var waits []wait
		var wakes []wake
		endedAt := map[trace.ThreadID]int{}

		check := func(step int, what string, got, want int, gotOK, wantOK bool) {
			t.Helper()
			if gotOK != wantOK || (wantOK && got != want) {
				t.Fatalf("step %d %s = (%d, %t), model (%d, %t)", step, what, got, gotOK, want, wantOK)
			}
		}
		for step, b := range ops {
			p := step + 1
			th := trace.ThreadID(b >> 4 % 3)
			switch b % 8 {
			case 0:
				got, ok := c.Send(p)
				want, wok := nth(recvs, len(sends))
				sends = append(sends, p)
				check(step, "Send", got, want, ok, wok)
			case 1:
				got, ok := c.Recv(p)
				want, wok := nth(sends, len(recvs))
				recvs = append(recvs, p)
				check(step, "Recv", got, want, ok, wok)
			case 2:
				c.Close(p)
				closed, lastClose = true, p
			case 3:
				cond.Wait(th)
				waits = append(waits, wait{th, true})
			case 4, 5:
				if b%8 == 4 {
					cond.Signal(p)
				} else {
					cond.Broadcast(p)
				}
				for i := range waits {
					if waits[i].live {
						waits[i].live = false
						wakes = append(wakes, wake{waits[i].th, p})
						if b%8 == 4 {
							break
						}
					}
				}
			case 6, 7:
				got, ok := cond.WaitEnd(th)
				want, wok := 0, false
				for i := len(wakes) - 1; i >= endedAt[th]; i-- {
					if wakes[i].th == th {
						want, wok = wakes[i].p, true
						break
					}
				}
				endedAt[th] = len(wakes)
				for i := range waits {
					if waits[i].live && waits[i].th == th {
						waits[i].live = false
						break
					}
				}
				check(step, "WaitEnd", got, want, ok, wok)
			}

			got, ok := c.Admitter()
			want, wok := nth(recvs, len(sends)-capa)
			check(step, "Admitter", got, want, ok, wok)
			got, ok = c.Next()
			want, wok = nth(sends, len(recvs))
			check(step, "Next", got, want, ok, wok)
			got, ok = c.Closed()
			check(step, "Closed", got, lastClose, ok, closed)
			n, first := c.Undelivered()
			want, wok = nth(sends, len(recvs))
			check(step, "Undelivered", first, want, n > 0, wok)
			if wok && n != len(sends)-len(recvs) {
				t.Fatalf("step %d: %d undelivered, model %d", step, n, len(sends)-len(recvs))
			}
			live := 0
			for _, w := range waits {
				if w.live {
					live++
				}
			}
			if cond.Waiters() != live {
				t.Fatalf("step %d: %d waiters, model %d", step, cond.Waiters(), live)
			}
		}
	})
}

// nth returns list[k], if it exists.
func nth(list []int, k int) (int, bool) {
	if k < 0 || k >= len(list) {
		return 0, false
	}
	return list[k], true
}
