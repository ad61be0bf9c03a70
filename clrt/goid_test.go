package clrt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// requireGoidFromG skips fast-read tests where the build has no g
// read; TestGoidFastPathActive fails instead when amd64 lost it.
func requireGoidFromG(t *testing.T) {
	t.Helper()
	if !goidFromG.Load() {
		t.Skipf("goroutine ids come from the stack parse on %s/%s", runtime.GOARCH, runtime.Version())
	}
}

// forceStackGoid turns the g read off for the rest of tb, so goid
// parses runtime.Stack as on an unverified Go version.
func forceStackGoid(tb testing.TB) {
	old := goidFromG.Swap(false)
	tb.Cleanup(func() { goidFromG.Store(old) })
}

// forEachGoidPath runs fn once per goroutine-id lookup this build can
// take: the g read when the init probe enabled it, then the stack
// parse with the g read forced off.
func forEachGoidPath(t *testing.T, fn func(t *testing.T, path string)) {
	if goidFromG.Load() {
		t.Run("g", func(t *testing.T) { fn(t, "g") })
	}
	t.Run("stack", func(t *testing.T) {
		forceStackGoid(t)
		fn(t, "stack")
	})
}

// goidMismatch compares the fast read with the stack parse on the
// calling goroutine.
func goidMismatch(where string) error {
	if g, s := loadGoid(goidOff), stackGoid(); g != s {
		return fmt.Errorf("%s: g read %d, stack parse %d", where, g, s)
	}
	return nil
}

func TestGoidFastPathActive(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("no g-reading stub on %s", runtime.GOARCH)
	}
	if !goidFromG.Load() {
		t.Fatalf("goid fell back to the stack parse on %s: goidOff %d no longer matches runtime.g.goid", runtime.Version(), goidOff)
	}
}

func TestGoidMatchesStackConcurrently(t *testing.T) {
	requireGoidFromG(t)
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := goidMismatch(fmt.Sprintf("goroutine %d round %d", i, j)); err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestGoidMatchesStackAfterGCAndGrowth(t *testing.T) {
	requireGoidFromG(t)
	runtime.GC()
	if err := goidMismatch("after GC"); err != nil {
		t.Fatal(err)
	}
	// Each frame carries 1 KiB, so 512 levels outgrow the initial
	// stack several times over and move it.
	var deep func(n int) error
	deep = func(n int) error {
		var pad [1024]byte
		pad[n%len(pad)] = byte(n)
		if n == 0 {
			return goidMismatch("at depth 512")
		}
		if err := deep(n - 1); err != nil {
			return err
		}
		if pad[n%len(pad)] != byte(n) {
			return fmt.Errorf("frame at depth %d lost its contents when the stack moved", n)
		}
		return goidMismatch(fmt.Sprintf("unwinding depth %d", n))
	}
	if err := deep(512); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if err := goidMismatch("after growth and GC"); err != nil {
		t.Fatal(err)
	}
}

func TestGoidMatchesOnClrtAndRawGoroutines(t *testing.T) {
	requireGoidFromG(t)
	errs := make(chan error, 2)
	capture(t, func() {
		var wg WaitGroup
		wg.Add(1)
		Go("spawned", func() {
			defer wg.Done()
			errs <- goidMismatch("clrt.Go goroutine")
		})
		wg.Wait()
		done := make(chan struct{})
		go func() { // started without clrt.Go
			errs <- goidMismatch("raw goroutine")
			close(done)
		}()
		<-done
	})
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestProbeGoidRejectsWrongOffset(t *testing.T) {
	off := uintptr(goidOff)
	for _, bad := range []uintptr{off - 8, off + 8} {
		if probeGoid(bad) {
			t.Errorf("probeGoid(%d) accepted an offset next to goid (%d)", bad, goidOff)
		}
	}
	if runtime.GOARCH == "amd64" && !probeGoid(off) {
		t.Errorf("probeGoid(%d) rejected the goid offset", goidOff)
	}
}

var goidSink int64

func BenchmarkGoid(b *testing.B) {
	b.Run("g", func(b *testing.B) {
		if !goidFromG.Load() {
			b.Skip("no verified g read in this build")
		}
		for i := 0; i < b.N; i++ {
			goidSink = goid()
		}
	})
	b.Run("stack", func(b *testing.B) {
		forceStackGoid(b)
		for i := 0; i < b.N; i++ {
			goidSink = goid()
		}
	})
}

// BenchmarkMutexLockUnlock times one uncontended Lock+Unlock pair,
// traced on the default goroutine-id lookup and on raw sync.Mutex.
// The traced case records in chunks of 1<<16 pairs, each its own
// recording, so the events held in memory stay bounded at any b.N.
func BenchmarkMutexLockUnlock(b *testing.B) {
	b.Run("traced", func(b *testing.B) {
		for done := 0; done < b.N; {
			n := min(b.N-done, 1<<16)
			b.StopTimer()
			capture(b, func() {
				var mu Mutex
				mu.SetName("bench.mu")
				b.StartTimer()
				for i := 0; i < n; i++ {
					mu.Lock()
					mu.Unlock()
				}
				b.StopTimer()
			})
			done += n
		}
	})
	b.Run("sync", func(b *testing.B) {
		var mu sync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
}
