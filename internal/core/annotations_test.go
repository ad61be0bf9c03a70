package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// convoyTrace is n events of 16 threads taking a hot mutex in turn
// (contended whenever it was still held) and a cold one right after,
// the shape of the benchmark's convoy workload.
func convoyTrace(n int, seed int64) *trace.Trace {
	const threads = 16
	rng := rand.New(rand.NewSource(seed))
	col := trace.NewCollector()
	bufs := make([]*trace.ThreadBuffer, threads)
	bufs[0] = col.RegisterThread("t0", trace.NoThread)
	for i := 1; i < threads; i++ {
		bufs[i] = col.RegisterThread(fmt.Sprintf("t%d", i), 0)
	}
	hot := col.RegisterObject(trace.ObjMutex, "hot", 0)
	cold := col.RegisterObject(trace.ObjMutex, "cold", 0)
	bufs[0].Emit(0, trace.EvThreadStart, trace.NoObj, int64(trace.NoThread))
	for i := 1; i < threads; i++ {
		bufs[0].Emit(0, trace.EvThreadCreate, trace.NoObj, int64(i))
		bufs[i].Emit(0, trace.EvThreadStart, trace.NoObj, 0)
	}
	tm, free := trace.Time(1), trace.Time(0)
	for r := 0; r < n/(threads*6); r++ {
		for k, b := range bufs {
			acq := tm + trace.Time(k)
			obt := max(acq, free+1)
			rel := obt + 5 + trace.Time(rng.Intn(9))
			arg := int64(0)
			if obt > acq {
				arg = trace.LockArgContended
			}
			b.Emit(acq, trace.EvLockAcquire, hot, 0)
			b.Emit(obt, trace.EvLockObtain, hot, arg)
			b.Emit(rel, trace.EvLockRelease, hot, 0)
			b.Emit(rel, trace.EvLockAcquire, cold, 0)
			b.Emit(rel, trace.EvLockObtain, cold, 0)
			b.Emit(rel+1, trace.EvLockRelease, cold, 0)
			free = rel
		}
		tm = free + 20 + trace.Time(rng.Intn(10))
	}
	for _, b := range bufs {
		b.Emit(tm, trace.EvThreadExit, trace.NoObj, 0)
	}
	return col.Finish()
}

// TestAnnotationBytes pins what the annotations cost: on a 256K-event
// convoy the store holds exactly its records and entry links at their
// sizes, at most 2.5 bytes per event.
func TestAnnotationBytes(t *testing.T) {
	tr := convoyTrace(256<<10, 1)
	n := len(tr.Events)
	bytes, recs, entries, err := core.Annotations(core.TraceSegments(tr))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(recs*core.AnnRecSize + entries*core.AnnEntrySize); bytes != want {
		t.Fatalf("store holds %d bytes, want %d records × %d + %d entry links × %d = %d",
			bytes, recs, core.AnnRecSize, entries, core.AnnEntrySize, want)
	}
	if per := float64(bytes) / float64(n); per > 2.5 {
		t.Fatalf("store holds %.2f bytes per event (%d records, %d entry links over %d events), want at most 2.5",
			per, recs, entries, n)
	}
	t.Logf("%d events: %d records, %d entry links, %d bytes (%.2f per event)",
		n, recs, entries, bytes, float64(bytes)/float64(n))
}
