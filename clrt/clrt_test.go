package clrt

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// capture runs body as an instrumented main (bootstrap root, run,
// End) and returns the validated recorded trace. It mirrors what Main
// does minus the file output.
func capture(t testing.TB, body func()) *trace.Trace {
	t.Helper()
	resetForTest()
	t.Cleanup(resetForTest)

	p := cur() // bootstrap root on the test goroutine
	_ = p
	body()

	st.mu.Lock()
	rt, root := st.rt, st.root
	st.finished = true
	st.mu.Unlock()
	tr, _, err := rt.End(root)
	if err != nil {
		t.Fatalf("End: %v", err)
	}
	if verr := trace.Validate(tr); verr != nil {
		t.Fatalf("trace invalid: %v", verr)
	}
	return tr
}

func analyze(t *testing.T, tr *trace.Trace) *core.Analysis {
	t.Helper()
	an, err := core.Analyze(tr, core.DefaultOptions())
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return an
}

func lockByName(an *core.Analysis, name string) *core.LockStats {
	for i := range an.Locks {
		if an.Locks[i].Name == name {
			return &an.Locks[i]
		}
	}
	return nil
}

func TestMutexContention(t *testing.T) {
	var mu Mutex
	mu.SetName("test.mu")
	counter := 0
	tr := capture(t, func() {
		var wg WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			Go(fmt.Sprintf("worker-%d", w), func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					mu.Lock()
					counter++
					spin(5 * time.Microsecond)
					mu.Unlock()
				}
			})
		}
		wg.Wait()
	})
	if counter != 200 {
		t.Fatalf("counter = %d, want 200 (mutual exclusion broken)", counter)
	}
	an := analyze(t, tr)
	ls := lockByName(an, "test.mu")
	if ls == nil {
		t.Fatalf("lock test.mu missing from analysis; locks: %+v", an.Locks)
	}
	if ls.TotalInvocations != 200 {
		t.Errorf("acquisitions = %d, want 200", ls.TotalInvocations)
	}
}

// spin busy-waits so critical sections have measurable width.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

func TestRWMutexSharedReaders(t *testing.T) {
	var mu RWMutex
	mu.SetName("test.rw")
	val := 0
	tr := capture(t, func() {
		var wg WaitGroup
		wg.Add(3)
		for r := 0; r < 2; r++ {
			Go("reader", func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					mu.RLock()
					_ = val
					mu.RUnlock()
				}
			})
		}
		Go("writer", func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				mu.Lock()
				val++
				mu.Unlock()
			}
		})
		wg.Wait()
	})
	if val != 20 {
		t.Fatalf("val = %d, want 20", val)
	}
	an := analyze(t, tr)
	ls := lockByName(an, "test.rw")
	if ls == nil {
		t.Fatal("lock test.rw missing from analysis")
	}
	if ls.TotalInvocations != 60 {
		t.Errorf("acquisitions = %d, want 60 (40 shared + 20 exclusive)", ls.TotalInvocations)
	}
}

func TestTryLockAndTryRLock(t *testing.T) {
	var mu Mutex
	var rw RWMutex
	capture(t, func() {
		if !mu.TryLock() {
			t.Error("TryLock on free mutex failed")
		}
		mu.Unlock()
		if !rw.TryRLock() {
			t.Error("TryRLock on free rwmutex failed")
		}
		// A second reader on another thread succeeds while this read
		// hold is live (shared, not exclusive).
		ok := MakeChan[bool]("try.ok", 0)
		Go("reader2", func() {
			r := rw.TryRLock()
			if r {
				rw.RUnlock()
			}
			ok.Send(r)
		})
		if !ok.Recv1() {
			t.Error("concurrent TryRLock on read-held rwmutex failed")
		}
		rw.RUnlock()
		if !rw.TryLock() {
			t.Error("TryLock on free rwmutex failed")
		}
		rw.Unlock()
	})
}

func TestChanPayloadsAndClose(t *testing.T) {
	tr := capture(t, func() {
		ch := MakeChan[int]("test.jobs", 2)
		done := MakeChan[int]("test.done", 0)
		var got []int
		Go("consumer", func() {
			sum := 0
			for {
				v, ok := ch.Recv()
				if !ok {
					break
				}
				got = append(got, v)
				sum += v
			}
			done.Send(sum)
		})
		for i := 1; i <= 5; i++ {
			ch.Send(i * 10)
		}
		ch.Close()
		if sum := done.Recv1(); sum != 150 {
			t.Errorf("sum = %d, want 150", sum)
		}
		if len(got) != 5 || got[0] != 10 || got[4] != 50 {
			t.Errorf("got = %v, want [10 20 30 40 50] in order", got)
		}
		// Closed-and-drained receive yields the zero value.
		if v, ok := ch.Recv(); ok || v != 0 {
			t.Errorf("recv on closed chan = (%d,%v), want (0,false)", v, ok)
		}
	})
	analyze(t, tr) // must not error on the channel events
}

func TestChanLenCap(t *testing.T) {
	capture(t, func() {
		ch := MakeChan[string]("test.buf", 3)
		if ch.Len() != 0 || ch.Cap() != 3 {
			t.Errorf("len,cap = %d,%d, want 0,3", ch.Len(), ch.Cap())
		}
		ch.Send("a")
		ch.Send("b")
		if ch.Len() != 2 {
			t.Errorf("len = %d, want 2", ch.Len())
		}
		if v := ch.Recv1(); v != "a" {
			t.Errorf("recv = %q, want \"a\" (FIFO)", v)
		}
	})
}

func TestSelect(t *testing.T) {
	capture(t, func() {
		a := MakeChan[int]("test.a", 1)
		b := MakeChan[int]("test.b", 1)
		var nilch Chan[int]

		// Default fires when nothing is ready.
		if k, _, _ := Select(true, RecvCase(a), RecvCase(b)); k != -1 {
			t.Errorf("select with nothing ready chose %d, want -1", k)
		}
		b.Send(7)
		k, v, ok := Select(false, RecvCase(a), RecvCase(b), RecvCase(nilch))
		if k != 1 || !ok || Val[int](v) != 7 {
			t.Errorf("select = (%d,%v,%v), want (1,7,true)", k, v, ok)
		}
		// Send arm with a nil arm before it: index maps back correctly.
		k, _, _ = Select(false, RecvCase(nilch), SendCase(a, 42))
		if k != 1 {
			t.Errorf("select send chose %d, want 1", k)
		}
		if got := a.Recv1(); got != 42 {
			t.Errorf("sent value = %d, want 42", got)
		}
		// All-nil arms with default.
		if k, _, _ := Select(true, RecvCase(nilch)); k != -1 {
			t.Errorf("all-nil select chose %d, want -1", k)
		}
	})
}

func TestWaitGroupNegativePanics(t *testing.T) {
	capture(t, func() {
		var wg WaitGroup
		defer func() {
			if recover() == nil {
				t.Error("negative WaitGroup counter did not panic")
			}
		}()
		wg.Add(-1)
	})
}

func TestEmbeddedAndPointerMutex(t *testing.T) {
	type account struct {
		Mutex // embedded: promoted Lock/Unlock, as after rewriting
		bal   int
	}
	deposit := func(a *account, n int) { // lock reached via pointer
		a.Lock()
		a.bal += n
		a.Unlock()
	}
	acct := &account{}
	tr := capture(t, func() {
		var wg WaitGroup
		wg.Add(2)
		for w := 0; w < 2; w++ {
			Go("depositor", func() {
				defer wg.Done()
				for i := 0; i < 25; i++ {
					deposit(acct, 2)
				}
			})
		}
		wg.Wait()
	})
	if acct.bal != 100 {
		t.Fatalf("balance = %d, want 100", acct.bal)
	}
	an := analyze(t, tr)
	// Auto-named from first call site; exactly one lock besides the
	// WaitGroup internals.
	var found bool
	for _, ls := range an.Locks {
		if ls.TotalInvocations == 50 {
			found = true
		}
	}
	if !found {
		t.Errorf("no lock with 50 acquisitions; locks: %+v", an.Locks)
	}
}

func TestMainWritesTrace(t *testing.T) {
	forEachGoidPath(t, func(t *testing.T, path string) {
		resetForTest()
		t.Cleanup(resetForTest)
		dir := t.TempDir()
		out := filepath.Join(dir, "t.cltr")
		t.Setenv("CRITLOCK_OUT", out)
		t.Setenv("CRITLOCK_QUIET", "1")

		var mu Mutex
		mu.SetName("main.mu")
		Main(func() {
			var wg WaitGroup
			wg.Add(1)
			Go("w", func() {
				defer wg.Done()
				mu.Lock()
				spin(time.Microsecond)
				mu.Unlock()
			})
			wg.Wait()
		})

		f, err := os.Open(out)
		if err != nil {
			t.Fatalf("trace not written: %v", err)
		}
		defer f.Close()
		tr, err := trace.ReadBinary(f)
		if err != nil {
			t.Fatalf("ReadBinary: %v", err)
		}
		if err := trace.Validate(tr); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		if got := tr.Meta["clrt.goid"]; got != path {
			t.Errorf("meta clrt.goid = %q, want %q", got, path)
		}
		an := analyze(t, tr)
		if lockByName(an, "main.mu") == nil {
			t.Error("main.mu missing from analysis of written trace")
		}
	})
}

func TestForeignGoroutineAdopted(t *testing.T) {
	forEachGoidPath(t, func(t *testing.T, _ string) {
		var mu Mutex
		mu.SetName("adopt.mu")
		tr := capture(t, func() {
			mu.Lock()
			mu.Unlock()
			var wg sync.WaitGroup // raw goroutine, as un-instrumented library code would spawn
			wg.Add(1)
			go func() {
				defer wg.Done()
				mu.Lock()
				mu.Unlock()
			}()
			wg.Wait()
		})
		an := analyze(t, tr)
		ls := lockByName(an, "adopt.mu")
		if ls == nil || ls.TotalInvocations != 2 {
			t.Fatalf("adopted goroutine's acquisition lost: %+v", ls)
		}
	})
}
