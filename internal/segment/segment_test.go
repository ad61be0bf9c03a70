package segment

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"critlock/internal/trace"
)

// sampleTrace builds a small canonical trace exercising every record
// shape the codec has: multiple threads and objects, equal-timestamp
// runs (delta 0), contended and shared obtains, channel operations
// (blocked and select-tagged), negative Obj (NoObj on thread events)
// and large Arg values.
func sampleTrace(n int) *trace.Trace {
	tr := &trace.Trace{
		Threads: []trace.ThreadInfo{
			{ID: 0, Name: "main", Creator: trace.NoThread},
			{ID: 1, Name: "w-0", Creator: 0},
			{ID: 2, Name: "w-1", Creator: 0},
		},
		Objects: []trace.ObjectInfo{
			{ID: 0, Kind: trace.ObjMutex, Name: "m0"},
			{ID: 1, Kind: trace.ObjMutex, Name: "m1"},
			{ID: 2, Kind: trace.ObjBarrier, Name: "b", Parties: 2},
			{ID: 3, Kind: trace.ObjChan, Name: "ch", Parties: 1},
		},
		Meta: map[string]string{"workload": "sample", "threads": "3"},
	}
	seq := uint64(0)
	t := trace.Time(0)
	emit := func(tid trace.ThreadID, kind trace.EventKind, obj trace.ObjID, arg int64, dt trace.Time) {
		seq++
		t += dt
		tr.Events = append(tr.Events, trace.Event{
			T: t, Seq: seq, Thread: tid, Kind: kind, Obj: obj, Arg: arg,
		})
	}
	emit(0, trace.EvThreadStart, trace.NoObj, 0, 0)
	emit(0, trace.EvThreadCreate, trace.NoObj, 1, 1)
	emit(1, trace.EvThreadStart, trace.NoObj, 0, 0) // equal-T run
	emit(0, trace.EvThreadCreate, trace.NoObj, 2, 2)
	emit(2, trace.EvThreadStart, trace.NoObj, 0, 0)
	for i := 0; len(tr.Events) < n; i++ {
		tid := trace.ThreadID(i%2 + 1)
		obj := trace.ObjID(i % 2)
		emit(tid, trace.EvLockAcquire, obj, 0, 3)
		arg := int64(0)
		if i%3 == 0 {
			arg = trace.LockArgContended
		}
		if i%5 == 0 {
			arg |= trace.LockArgShared
		}
		emit(tid, trace.EvLockObtain, obj, arg, trace.Time(i%4))
		emit(tid, trace.EvLockRelease, obj, 0, 1000003) // large delta
		if i%4 == 0 {
			emit(1, trace.EvChanSendBegin, 3, 0, 2)
			emit(1, trace.EvChanSend, 3, 0, 1)
			carg := int64(0)
			if i%8 == 0 {
				carg = trace.ChanArgBlocked
			}
			emit(2, trace.EvChanRecvBegin, 3, 0, 1)
			emit(2, trace.EvChanRecv, 3, carg, trace.Time(i%3))
		}
		if i%6 == 0 {
			emit(2, trace.EvSelect, trace.NoObj, 0, 1)
			emit(2, trace.EvChanRecvBegin, 3, 0, 0)
			emit(2, trace.EvChanRecv, 3, trace.ChanArgSelect|trace.ChanArgClosed, 1)
		}
	}
	emit(1, trace.EvChanClose, 3, 0, 1)
	emit(1, trace.EvThreadExit, trace.NoObj, 0, 1)
	emit(2, trace.EvThreadExit, trace.NoObj, 0, 1)
	emit(0, trace.EvThreadExit, trace.NoObj, 0, 1)
	return tr
}

func TestFileWriterRoundTrip(t *testing.T) {
	tr := sampleTrace(100)
	path := filepath.Join(t.TempDir(), "one.clsg")
	w, err := NewFileWriter(path, Options{FrameEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	ftr, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}

	if ftr.Count != len(tr.Events) {
		t.Errorf("footer count = %d, want %d", ftr.Count, len(tr.Events))
	}
	first, last := tr.Events[0], tr.Events[len(tr.Events)-1]
	if ftr.MinT != first.T || ftr.FirstSeq != first.Seq || ftr.MaxT != last.T || ftr.LastSeq != last.Seq {
		t.Errorf("footer range = (%d,%d)..(%d,%d), want (%d,%d)..(%d,%d)",
			ftr.MinT, ftr.FirstSeq, ftr.MaxT, ftr.LastSeq, first.T, first.Seq, last.T, last.Seq)
	}

	// Footer per-thread counts and per-lock summaries must match a
	// direct tally of the input.
	wantThr := map[trace.ThreadID]int{}
	wantLock := map[trace.ObjID]LockSummary{}
	wantChan := map[trace.ObjID]ChanSummary{}
	for _, e := range tr.Events {
		wantThr[e.Thread]++
		switch e.Kind {
		case trace.EvChanSend:
			cs := wantChan[e.Obj]
			cs.Obj = e.Obj
			cs.Sends++
			if e.ChanBlocked() {
				cs.BlockedSends++
			}
			wantChan[e.Obj] = cs
		case trace.EvChanRecv:
			cs := wantChan[e.Obj]
			cs.Obj = e.Obj
			cs.Recvs++
			if e.ChanBlocked() {
				cs.BlockedRecvs++
			}
			wantChan[e.Obj] = cs
		case trace.EvChanClose:
			cs := wantChan[e.Obj]
			cs.Obj = e.Obj
			cs.Closes++
			wantChan[e.Obj] = cs
		}
		switch e.Kind {
		case trace.EvLockAcquire:
			ls := wantLock[e.Obj]
			ls.Obj = e.Obj
			ls.Acquires++
			wantLock[e.Obj] = ls
		case trace.EvLockObtain:
			ls := wantLock[e.Obj]
			ls.Obj = e.Obj
			ls.Obtains++
			if e.Contended() {
				ls.Contended++
			}
			wantLock[e.Obj] = ls
		case trace.EvLockRelease:
			ls := wantLock[e.Obj]
			ls.Obj = e.Obj
			ls.Releases++
			wantLock[e.Obj] = ls
		}
	}
	if len(ftr.ThreadCounts) != len(wantThr) {
		t.Errorf("footer has %d thread counts, want %d", len(ftr.ThreadCounts), len(wantThr))
	}
	for _, tc := range ftr.ThreadCounts {
		if tc.Count != wantThr[tc.Thread] {
			t.Errorf("thread %d count = %d, want %d", tc.Thread, tc.Count, wantThr[tc.Thread])
		}
	}
	for _, ls := range ftr.Locks {
		if ls != wantLock[ls.Obj] {
			t.Errorf("lock %d summary = %+v, want %+v", ls.Obj, ls, wantLock[ls.Obj])
		}
	}
	if len(ftr.Chans) != len(wantChan) {
		t.Errorf("footer has %d chan summaries, want %d", len(ftr.Chans), len(wantChan))
	}
	for _, cs := range ftr.Chans {
		if cs != wantChan[cs.Obj] {
			t.Errorf("chan %d summary = %+v, want %+v", cs.Obj, cs, wantChan[cs.Obj])
		}
	}

	fr, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	got, err := fr.ReadAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatalf("round trip changed events: got %d, want %d", len(got), len(tr.Events))
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	tr := sampleTrace(500)
	dir := filepath.Join(t.TempDir(), "segs")
	if err := WriteTrace(dir, tr, Options{SegmentEvents: 64, FrameEvents: 16}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumEvents() != len(tr.Events) {
		t.Fatalf("NumEvents = %d, want %d", r.NumEvents(), len(tr.Events))
	}
	if want := (len(tr.Events) + 63) / 64; r.NumSegments() != want {
		t.Fatalf("NumSegments = %d, want %d", r.NumSegments(), want)
	}

	// Segment bounds must tile [0, n) contiguously and LoadSegment
	// must return exactly the corresponding slice.
	next := 0
	var buf []trace.Event
	for i := 0; i < r.NumSegments(); i++ {
		first, count := r.SegmentBounds(i)
		if first != next || count <= 0 {
			t.Fatalf("segment %d bounds = (%d,%d), want first=%d", i, first, count, next)
		}
		buf, err = r.LoadSegment(i, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(buf, tr.Events[first:first+count]) {
			t.Fatalf("segment %d contents differ", i)
		}
		next = first + count
	}
	if next != len(tr.Events) {
		t.Fatalf("segments cover %d events, want %d", next, len(tr.Events))
	}

	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Error("ReadAll events differ")
	}
	if !reflect.DeepEqual(got.Threads, tr.Threads) {
		t.Error("ReadAll threads differ")
	}
	if !reflect.DeepEqual(got.Objects, tr.Objects) {
		t.Error("ReadAll objects differ")
	}
	if !reflect.DeepEqual(got.Meta, tr.Meta) {
		t.Errorf("ReadAll meta = %v, want %v", got.Meta, tr.Meta)
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	w, err := NewFileWriter(filepath.Join(t.TempDir(), "x.clsg"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(trace.Event{T: 10, Seq: 2, Kind: trace.EvThreadStart}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(trace.Event{T: 10, Seq: 2, Kind: trace.EvThreadExit}); err == nil {
		t.Fatal("duplicate (T,Seq) accepted")
	}
}

// TestAppendNegativeSummarizedObject: the footer stores lock and
// channel IDs unsigned, so the writer refuses a lock or channel event
// on a negative object instead of writing a segment its reader rejects.
func TestAppendNegativeSummarizedObject(t *testing.T) {
	for _, k := range []trace.EventKind{trace.EvLockObtain, trace.EvChanSend} {
		w, err := NewFileWriter(filepath.Join(t.TempDir(), "x.clsg"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(trace.Event{T: 1, Seq: 1, Kind: k, Obj: trace.NoObj}); err == nil {
			t.Errorf("%s on object -1 accepted", k)
		}
	}
}

// segBytes writes the sample trace into one segment file and returns
// its raw bytes.
func segBytes(t *testing.T, n int) []byte {
	t.Helper()
	tr := sampleTrace(n)
	path := filepath.Join(t.TempDir(), "one.clsg")
	w, err := NewFileWriter(path, Options{FrameEvents: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// drainBytes fully decodes a segment image, returning the first error.
func drainBytes(raw []byte) error {
	fr, err := NewFileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return err
	}
	_, err = fr.ReadAll(nil)
	return err
}

// TestSegmentTruncation: every proper prefix of a segment file must be
// rejected — the trailer-anchored layout cannot mistake a cut for a
// shorter valid file.
func TestSegmentTruncation(t *testing.T) {
	raw := segBytes(t, 120)
	for cut := 0; cut < len(raw); cut++ {
		if err := drainBytes(raw[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes accepted", cut, len(raw))
		}
	}
}

// TestSegmentBitFlips: every single-byte corruption must be rejected —
// the body and footer CRCs leave no unprotected region.
func TestSegmentBitFlips(t *testing.T) {
	raw := segBytes(t, 120)
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		copy(mut, raw)
		mut[i] ^= 0xff
		if err := drainBytes(mut); err == nil {
			t.Fatalf("flip at byte %d/%d accepted", i, len(raw))
		}
	}
}

// TestManifestMutation: truncations and single-byte corruptions of the
// manifest must all be rejected by Open.
func TestManifestMutation(t *testing.T) {
	tr := sampleTrace(200)
	dir := filepath.Join(t.TempDir(), "segs")
	if err := WriteTrace(dir, tr, Options{SegmentEvents: 64}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	check := func(img []byte, what string) {
		t.Helper()
		mdir := filepath.Join(t.TempDir(), "m")
		if err := os.MkdirAll(mdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mdir, ManifestName), img, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(mdir); err == nil {
			t.Fatalf("%s accepted", what)
		}
	}
	for cut := 0; cut < len(raw); cut += 7 {
		check(raw[:cut], fmt.Sprintf("truncation to %d bytes", cut))
	}
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		copy(mut, raw)
		mut[i] ^= 0xff
		check(mut, fmt.Sprintf("flip at byte %d", i))
	}
}

// TestSpillerMergesRuns drives the spill path directly: interleaved
// per-thread runs must merge back into the canonical order.
func TestSpillerMergesRuns(t *testing.T) {
	tr := sampleTrace(300)
	byThread := map[trace.ThreadID][]trace.Event{}
	for _, e := range tr.Events {
		byThread[e.Thread] = append(byThread[e.Thread], e)
	}

	dir := filepath.Join(t.TempDir(), "spill")
	sp, err := NewSpiller(dir, Options{SegmentEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Spill each thread's events in several chunks, interleaved across
	// threads, as the collector would.
	for len(byThread) > 0 {
		for tid, evs := range byThread {
			k := len(evs)
			if k > 20 {
				k = 20
			}
			if err := sp.SpillRun(tid, evs[:k]); err != nil {
				t.Fatal(err)
			}
			if k == len(evs) {
				delete(byThread, tid)
			} else {
				byThread[tid] = evs[k:]
			}
		}
	}

	col := trace.NewCollector()
	for _, th := range tr.Threads {
		col.RegisterThread(th.Name, th.Creator)
	}
	for _, o := range tr.Objects {
		col.RegisterObject(o.Kind, o.Name, o.Parties)
	}
	for k, v := range tr.Meta {
		col.SetMeta(k, v)
	}
	r, err := sp.Finish(col)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("merged events differ: got %d, want %d", len(got.Events), len(tr.Events))
	}
	// Run files must be cleaned up.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if len(e.Name()) >= 4 && e.Name()[:4] == "run-" {
			t.Errorf("run file %s left behind", e.Name())
		}
	}
}

// TestBufferedReadsBounded: a buffered (NoMmap) reader keeps only its
// segments' offsets, so loading every segment of a directory grows the
// live heap by at most about two segment images (the pooled read
// buffer) rather than by the whole encoded trace. The loads decode
// what the mapped reader decodes, also from concurrent goroutines.
func TestBufferedReadsBounded(t *testing.T) {
	tr := sampleTrace(200_000)
	dir := filepath.Join(t.TempDir(), "segs")
	if err := WriteTrace(dir, tr, Options{SegmentEvents: 8192}); err != nil {
		t.Fatal(err)
	}
	mapped, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	r, err := OpenWith(dir, ReadOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := r.NumSegments()
	if n < 16 {
		t.Fatalf("%d segments, want 16 or more", n)
	}
	var image int64
	for i := 0; i < n; i++ {
		st, err := os.Stat(filepath.Join(dir, r.Segment(i).Name))
		if err != nil {
			t.Fatal(err)
		}
		image = max(image, st.Size())
	}

	// Size the columns before measuring: decoded events are not the
	// growth under test.
	var cols trace.Columns
	cols.Reset(8192)
	// Two collections empty every sync.Pool the writer left behind.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, err := r.LoadColumns(i, &cols); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(&cols)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 2*image {
		t.Errorf("loading %d buffered segments grew the heap by %d bytes; want at most %d (two segment images)",
			n, grew, 2*image)
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got, want trace.Columns
			if _, err := r.LoadColumns(i, &got); err != nil {
				errs[i] = err
				return
			}
			if _, err := mapped.LoadColumns(i, &want); err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs[i] = fmt.Errorf("segment %d: buffered decode differs from mapped", i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
