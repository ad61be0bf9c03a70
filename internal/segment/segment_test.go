package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// TestSegmentFileRoundTrip: one segment file is version 3, its footer
// holds its event count and (T, Seq) range, and it decodes to the
// events written.
func TestSegmentFileRoundTrip(t *testing.T) {
	tr := sampleTrace(100)
	_, s, img := oneSegment(t, tr)
	if v := img[len(segMagic)]; v != segVersion {
		t.Errorf("version %d, want %d", v, segVersion)
	}
	ftr, _, _, err := verifyImage(img)
	if err != nil {
		t.Fatal(err)
	}
	want := footerOf(tr.Events)
	if ftr != want {
		t.Errorf("footer = %+v, want %+v", ftr, want)
	}
	if s.Name != "seg-000000.clsg" || s.First != 0 {
		t.Errorf("manifest entry = %+v", s)
	}
	s.Name, s.First = "", 0
	if s != want {
		t.Errorf("manifest entry = %+v, want %+v", s, want)
	}
	cols, err := loadImage(img, ftr, len(tr.Threads))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]trace.Event, cols.Len())
	for j := range got {
		got[j] = cols.Event(j)
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
	w, err := NewWriter(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(trace.Event{T: 10, Seq: 2, Kind: trace.EvThreadStart}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(trace.Event{T: 10, Seq: 2, Kind: trace.EvThreadExit}); err == nil {
		t.Fatal("duplicate (T,Seq) accepted")
	}
}

// TestRepeatedPairRefused: events inside a segment file are in strict
// (T, Seq) order, as across segments and in the binary trace format.
// A repeated pair is refused even where the thread ID grows (which
// trace.Less alone would order): by the writer, by the reader on a
// hand-built image and by trace.DecodeBinary.
func TestRepeatedPairRefused(t *testing.T) {
	tr := &trace.Trace{
		Threads: []trace.ThreadInfo{
			{ID: 0, Name: "main", Creator: trace.NoThread},
			{ID: 1, Name: "w", Creator: 0},
		},
		Meta: map[string]string{},
		Events: []trace.Event{
			{T: 1, Seq: 1, Thread: 0, Kind: trace.EvThreadStart, Obj: trace.NoObj},
			{T: 2, Seq: 2, Thread: 0, Kind: trace.EvThreadCreate, Obj: trace.NoObj, Arg: 1},
			{T: 2, Seq: 2, Thread: 1, Kind: trace.EvThreadStart, Obj: trace.NoObj},
		},
	}
	if !trace.Less(tr.Events[1], tr.Events[2]) {
		t.Fatal("the repeated pair is not in trace.Less order")
	}
	const want = "out of order"
	if err := WriteTrace(t.TempDir(), tr, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("WriteTrace: err = %v, want %q", err, want)
	}
	img := handImage(tr.Events, segVersion, appendFooter(nil, footerOf(tr.Events)))
	ftr, _, _, err := verifyImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadImage(img, ftr, len(tr.Threads)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("reader: err = %v, want %q", err, want)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.DecodeBinary(buf.Bytes()); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("DecodeBinary: err = %v, want %q", err, want)
	}
}

// TestAppendNegativeSummarizedObject: the analysis indexes per-lock and
// per-channel state by object ID, so the writer refuses a lock or
// channel event on a negative object.
func TestAppendNegativeSummarizedObject(t *testing.T) {
	for _, k := range []trace.EventKind{trace.EvLockObtain, trace.EvChanSend} {
		w, err := NewWriter(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(trace.Event{T: 1, Seq: 1, Kind: k, Obj: trace.NoObj}); err == nil {
			t.Errorf("%s on object -1 accepted", k)
		}
		w.Close()
	}
}

// TestReadsVersion2: a directory written before the footer dropped its
// summaries (testdata/v2segdir: deadlockprone in 8-event segments of
// 4-event frames, segment version 2) loads the events of its source
// trace, mapped and buffered. A version-2 footer's bytes after the
// range are skipped; a version-3 footer must end there.
func TestReadsVersion2(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "deadlockprone.cltr"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := trace.DecodeBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "v2segdir")
	for _, opts := range []ReadOptions{{}, {NoMmap: true}} {
		r, err := OpenWith(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.NumSegments() < 2 {
			t.Fatalf("%d segments, want several", r.NumSegments())
		}
		for i := 0; i < r.NumSegments(); i++ {
			img, err := os.ReadFile(filepath.Join(dir, r.Segment(i).Name))
			if err != nil {
				t.Fatal(err)
			}
			if v := img[len(segMagic)]; v != segVersionV2 {
				t.Fatalf("%s has version %d, want %d", r.Segment(i).Name, v, segVersionV2)
			}
		}
		got, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Fatalf("NoMmap=%v: %v", opts.NoMmap, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("NoMmap=%v: v2 directory does not load its source trace", opts.NoMmap)
		}
	}

	evs := sampleTrace(40).Events
	summaries := []byte{1, 0, 5, 0} // one thread count, no locks, no channels
	for _, c := range []struct {
		version uint64
		ok      bool
	}{{segVersionV2, true}, {segVersion, false}} {
		img := handImage(evs, c.version, append(appendFooter(nil, footerOf(evs)), summaries...))
		_, _, _, err := verifyImage(img)
		if (err == nil) != c.ok {
			t.Errorf("version %d footer with summaries: err = %v, want ok=%v", c.version, err, c.ok)
		}
	}
}

// oneSegment writes tr as a directory of one segment in 16-event
// frames and returns the directory, the segment's manifest entry and
// its file image.
func oneSegment(tb testing.TB, tr *trace.Trace) (string, SegmentInfo, []byte) {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "segs")
	if err := WriteTrace(dir, tr, Options{FrameEvents: 16}); err != nil {
		tb.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	if r.NumSegments() != 1 {
		tb.Fatalf("%d segments, want 1", r.NumSegments())
	}
	s := r.Segment(0)
	img, err := os.ReadFile(filepath.Join(dir, s.Name))
	if err != nil {
		tb.Fatal(err)
	}
	return dir, s, img
}

// handImage encodes events as one segment file image of the given
// version in a single frame, with the given footer payload, without
// the writer's order checks.
func handImage(evs []trace.Event, version uint64, footer []byte) []byte {
	var frame []byte
	var prev trace.Event
	for _, e := range evs {
		frame = trace.AppendEvent(frame, e, prev)
		prev = e
	}
	img := binary.AppendUvarint([]byte(segMagic), version)
	img = append(img, frameTag)
	img = binary.AppendUvarint(img, uint64(len(evs)))
	img = binary.AppendUvarint(img, uint64(len(frame)))
	img = append(img, frame...)
	footerOff := len(img)
	img = append(img, footerTag)
	img = binary.AppendUvarint(img, uint64(len(footer)))
	img = append(img, footer...)
	img = binary.LittleEndian.AppendUint32(img, crcOf(img[:footerOff]))
	img = binary.LittleEndian.AppendUint32(img, crcOf(footer))
	img = binary.LittleEndian.AppendUint64(img, uint64(footerOff))
	return append(img, segEndMagic...)
}

// footerOf returns the footer fields of a segment holding evs.
func footerOf(evs []trace.Event) SegmentInfo {
	first, last := evs[0], evs[len(evs)-1]
	return SegmentInfo{Count: len(evs), MinT: first.T, MaxT: last.T, FirstSeq: first.Seq, LastSeq: last.Seq}
}

// TestFooterCountBounded: a footer (and manifest) may not claim more
// events than the body has bytes, or a tiny hostile file would size
// the decode columns at up to 2^30 events.
func TestFooterCountBounded(t *testing.T) {
	evs := sampleTrace(40).Events
	s := footerOf(evs)
	s.Count = 1 << 30
	img := handImage(evs, segVersion, appendFooter(nil, s))
	if _, _, _, err := verifyImage(img); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("err = %v, want a footer count that exceeds the body", err)
	}
}

// loadImage verifies and decodes a segment file image held in memory,
// as a Reader does with a mapped file: verifyImage and the check
// against manifest entry s on first access, then the frame decode and
// first-load checks of LoadColumns, with threads threads registered.
func loadImage(img []byte, s SegmentInfo, threads int) (*trace.Columns, error) {
	skel := &trace.Trace{Meta: map[string]string{}}
	for i := 0; i < threads; i++ {
		skel.Threads = append(skel.Threads, trace.ThreadInfo{ID: trace.ThreadID(i), Creator: trace.NoThread})
	}
	r := &Reader{skel: skel, segs: []SegmentInfo{s}, total: s.Count, handles: make([]segHandle, 1)}
	h := &r.handles[0]
	h.once.Do(func() {
		if h.err = r.verify(0, h, img); h.err == nil {
			h.data = img
		}
	})
	var cols trace.Columns
	if _, err := r.LoadColumns(0, &cols); err != nil {
		return nil, err
	}
	return &cols, nil
}

// refused requires a corrupted image of the one-segment directory dir
// (manifest entry s) to be refused in memory and from the file, mapped
// and buffered.
func refused(t *testing.T, dir string, s SegmentInfo, img []byte, what string) {
	t.Helper()
	if _, err := loadImage(img, s, 3); err == nil {
		t.Fatalf("%s accepted in memory", what)
	}
	if err := os.WriteFile(filepath.Join(dir, s.Name), img, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []ReadOptions{{}, {NoMmap: true}} {
		r, err := OpenWith(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		var cols trace.Columns
		_, err = r.LoadColumns(0, &cols)
		r.Close()
		if err == nil {
			t.Fatalf("%s accepted (NoMmap=%v)", what, opts.NoMmap)
		}
	}
}

// TestSegmentTruncation: every proper prefix of a segment file must be
// rejected — the trailer-anchored layout cannot mistake a cut for a
// shorter valid file.
func TestSegmentTruncation(t *testing.T) {
	dir, s, raw := oneSegment(t, sampleTrace(120))
	for cut := 0; cut < len(raw); cut++ {
		refused(t, dir, s, raw[:cut], fmt.Sprintf("truncation to %d/%d bytes", cut, len(raw)))
	}
}

// TestSegmentBitFlips: every single-byte corruption must be rejected —
// the body and footer CRCs leave no unprotected region.
func TestSegmentBitFlips(t *testing.T) {
	dir, s, raw := oneSegment(t, sampleTrace(120))
	mut := make([]byte, len(raw))
	for i := 0; i < len(raw); i++ {
		copy(mut, raw)
		mut[i] ^= 0xff
		refused(t, dir, s, mut, fmt.Sprintf("flip at byte %d/%d", i, len(raw)))
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
	// Run directories must be cleaned up.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Errorf("run directory %s left behind", e.Name())
		}
	}
}

// TestSpillMergeBounded: Finish merges the runs of a many-thread spill
// holding one decoded DefaultFrameEvents run segment (and its encoded
// image) per thread, so its live heap grows by at most about two such
// segments per thread however long the runs are: here a fifth of the
// decoded trace. A sampler collects garbage and reads the live heap
// while Finish runs.
func TestSpillMergeBounded(t *testing.T) {
	const threads, perThread, chunk = 16, 10 * DefaultFrameEvents, 1024
	dir := filepath.Join(t.TempDir(), "spill")
	sp, err := NewSpiller(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector()
	for th := 0; th < threads; th++ {
		col.RegisterThread(fmt.Sprint("t", th), trace.NoThread)
	}
	col.RegisterObject(trace.ObjMutex, "m", 0)
	// Thread th's i-th event is at T = i*threads + th, so the merged
	// trace's k-th event is at T = k on thread k%threads.
	kinds := []trace.EventKind{trace.EvLockAcquire, trace.EvLockObtain, trace.EvLockRelease}
	buf := make([]trace.Event, chunk)
	for base := 0; base < perThread; base += chunk {
		for th := 0; th < threads; th++ {
			for j := range buf {
				k := (base+j)*threads + th
				buf[j] = trace.Event{T: trace.Time(k), Seq: uint64(k + 1), Thread: trace.ThreadID(th),
					Kind: kinds[k%3], Arg: int64(k % 7)}
			}
			if err := sp.SpillRun(trace.ThreadID(th), buf); err != nil {
				t.Fatal(err)
			}
		}
	}

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	done, peak := make(chan struct{}), make(chan uint64)
	go func() {
		var m runtime.MemStats
		var most uint64
		for {
			runtime.GC()
			runtime.ReadMemStats(&m)
			most = max(most, m.HeapAlloc)
			select {
			case <-done:
				peak <- most
				return
			default:
			}
		}
	}()
	r, err := sp.Finish(col)
	close(done)
	grew := int64(<-peak) - int64(before.HeapAlloc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	t.Logf("Finish grew the live heap by %d bytes", grew)
	// One decoded event takes 33 bytes in columns.
	segment := int64(DefaultFrameEvents) * 33
	if bound := 2 * threads * segment; grew > bound {
		t.Errorf("Finish grew the live heap by %d bytes; want at most %d (two run segments per thread; the decoded trace is %d)",
			grew, bound, threads*perThread*33)
	}
	if r.NumEvents() != threads*perThread {
		t.Fatalf("merged %d events, want %d", r.NumEvents(), threads*perThread)
	}
	var cols trace.Columns
	for i := 0; i < r.NumSegments(); i++ {
		if _, err := r.LoadColumns(i, &cols); err != nil {
			t.Fatal(err)
		}
		first, _ := r.SegmentBounds(i)
		for j := range cols.Len() {
			if k := first + j; cols.T[j] != trace.Time(k) || int(cols.Thread[j]) != k%threads {
				t.Fatalf("merged event %d is at t=%d on thread %d", k, cols.T[j], cols.Thread[j])
			}
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

// TestBufferedFirstLoadReadsOnce: a buffered reader's first load of a
// segment decodes from the image it read to verify, so loading every
// segment once reads each file's bytes once, and a second sweep reads
// only the frame regions. It counts the bytes the process reads
// (rchar in /proc/self/io) and skips where that is not available.
func TestBufferedFirstLoadReadsOnce(t *testing.T) {
	if _, err := readChars(); err != nil {
		t.Skipf("no read accounting: %v", err)
	}
	dir := filepath.Join(t.TempDir(), "segs")
	if err := WriteTrace(dir, sampleTrace(50_000), Options{SegmentEvents: 8192}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenWith(dir, ReadOptions{NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var files int64
	for i := 0; i < r.NumSegments(); i++ {
		st, err := os.Stat(filepath.Join(dir, r.Segment(i).Name))
		if err != nil {
			t.Fatal(err)
		}
		files += st.Size()
	}
	// sweep loads every segment and returns the bytes read and decoded.
	sweep := func() (read, body int64) {
		var cols trace.Columns
		before, err := readChars()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.NumSegments(); i++ {
			n, err := r.LoadColumns(i, &cols)
			if err != nil {
				t.Fatal(err)
			}
			body += n
		}
		after, err := readChars()
		if err != nil {
			t.Fatal(err)
		}
		return after - before, body
	}
	// The slack covers the read of /proc/self/io itself.
	const slack = 4096
	if read, _ := sweep(); read < files || read > files+slack {
		t.Errorf("first loads of %d segments read %d bytes; want the files' %d", r.NumSegments(), read, files)
	}
	if read, body := sweep(); read < body || read > body+slack {
		t.Errorf("second loads read %d bytes; want the frame regions' %d", read, body)
	}
}

// readChars returns the bytes this process has read so far, from
// rchar in /proc/self/io.
func readChars() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			var n int64
			_, err := fmt.Sscan(v, &n)
			return n, err
		}
	}
	return 0, fmt.Errorf("no rchar in /proc/self/io")
}
