package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// buildSampleTrace constructs a small but representative trace using
// every event kind.
func buildSampleTrace() *Trace {
	b := NewBuilder()
	main := b.Thread("main", NoThread)
	w1 := b.Thread("worker-1", main)
	m := b.Mutex("L1")
	bar := b.Barrier("phase", 2)
	cv := b.Cond("queue-nonempty")

	b.Meta("workload", "sample")
	b.Start(0, main)
	b.Start(5, w1)
	b.CS(main, m, 10, 10, 20)
	b.CS(w1, m, 12, 20, 30)
	b.BarrierWait(main, bar, 25, 35, false)
	b.BarrierWait(w1, bar, 35, 35, true)
	b.Event(40, w1, EvCondWaitBegin, cv, int64(m))
	b.Event(45, main, EvCondSignal, cv, 0)
	b.Event(46, main, EvCondBroadcast, cv, 0)
	b.Event(47, w1, EvCondWaitEnd, cv, int64(m))
	b.Exit(50, w1)
	b.Join(main, w1, 48, 50)
	b.Exit(60, main)
	return b.Trace()
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestBinaryRejectsBadMagic(t *testing.T) {
	_, err := ReadBinary(strings.NewReader("NOPE....."))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("err = %v, want bad magic", err)
	}
}

func TestBinaryRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	buf.WriteByte(99) // version uvarint 99
	_, err := ReadBinary(&buf)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v, want version error", err)
	}
}

func TestBinaryRejectsTruncated(t *testing.T) {
	tr := buildSampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Truncating at any prefix must produce an error, never a panic.
	for cut := 0; cut < len(full); cut += 7 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestBinaryRejectsOutOfRangeThread(t *testing.T) {
	tr := buildSampleTrace()
	tr.Events[3].Thread = 99 // beyond registered threads
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err == nil {
		t.Error("decoder accepted out-of-range thread")
	}
}

func TestJSONRejectsUnknownKind(t *testing.T) {
	in := `{"threads":[],"objects":[],"events":[{"t":0,"seq":1,"thread":0,"kind":"bogus","obj":-1}]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Error("decoder accepted unknown event kind")
	}
	in = `{"threads":[],"objects":[{"id":0,"kind":"widget","name":"x"}],"events":[]}`
	if _, err := ReadJSON(strings.NewReader(in)); err == nil {
		t.Error("decoder accepted unknown object kind")
	}
}

// TestBinaryRoundTripRandom is a property test: arbitrary valid event
// streams survive a binary round trip bit-exactly.
func TestBinaryRoundTripRandom(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		main := b.Thread("main", NoThread)
		m := b.Mutex("m")
		b.Meta("seed", "x")
		var tm Time
		b.Start(tm, main)
		for i := 0; i < int(n%40); i++ {
			tm += Time(rng.Intn(1000))
			hold := tm + Time(rng.Intn(50))
			rel := hold + Time(rng.Intn(100))
			b.CS(main, m, tm, hold, rel)
			tm = rel
		}
		b.Exit(tm+1, main)
		tr := b.Trace()

		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	tr := buildSampleTrace()
	var bin, js bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&js, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Errorf("binary %d bytes not smaller than JSON %d bytes", bin.Len(), js.Len())
	}
}

// TestDecodeBinaryRejectsHugeCounts: a header count is checked against
// the bytes that back it before anything is allocated from it.
func TestDecodeBinaryRejectsHugeCounts(t *testing.T) {
	const huge = 1 << 29
	header := func(counts ...uint64) []byte {
		b := append([]byte(binaryMagic), binaryVersion)
		for _, c := range counts {
			b = binary.AppendUvarint(b, c)
		}
		return append(b, make([]byte, 32)...) // some bytes to claim
	}
	for _, tc := range []struct {
		what string
		data []byte
	}{
		{"meta", header(huge)},
		{"threads", header(0, huge)},
		{"objects", header(0, 0, huge)},
		{"events", header(0, 0, 0, huge)},
	} {
		t.Run(tc.what, func(t *testing.T) {
			if len(tc.data) >= 64 {
				t.Fatalf("input is %d bytes, want under 64", len(tc.data))
			}
			for _, decode := range []func([]byte) (*Trace, error){
				DecodeBinary,
				func(b []byte) (*Trace, error) { return ReadBinary(bytes.NewReader(b)) },
			} {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := decode(tc.data)
				runtime.ReadMemStats(&after)
				if err == nil || !strings.Contains(err.Error(), tc.what+" count") {
					t.Errorf("err = %v, want a %s count error", err, tc.what)
				}
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
					t.Errorf("decoding allocated %d bytes", grew)
				}
			}
		})
	}
}

// TestReadBinarySources: the same bytes decode to the same trace from
// an in-memory reader, a file (read in one Stat-sized buffer) and a
// reader that hands out one byte per call.
func TestReadBinarySources(t *testing.T) {
	tr := chunkEdgeTrace(binaryChunk + 10)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.cltr")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"bytes.Reader", bytes.NewReader(buf.Bytes())},
		{"os.File", f},
		{"OneByteReader", iotest.OneByteReader(bytes.NewReader(buf.Bytes()))},
	} {
		got, err := ReadBinary(src.r)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("%s: decoded trace differs", src.name)
		}
	}
}

// chunkEdgeTrace builds n strictly ordered events (not a valid
// execution; the codec does not care) whose records around every
// multiple of binaryChunk, and every 1000th, take the batch decoder's
// multi-byte path: T deltas over 63, threads of 64 and 128 and up,
// objects of 64 and up, and negative args, small and large.
func chunkEdgeTrace(n int) *Trace {
	tr := &Trace{Meta: map[string]string{"k": "v"}}
	for i := 0; i < 200; i++ {
		tr.Threads = append(tr.Threads, ThreadInfo{ID: ThreadID(i), Name: fmt.Sprintf("t%d", i), Creator: ThreadID(i - 1)})
	}
	for i := 0; i < 300; i++ {
		tr.Objects = append(tr.Objects, ObjectInfo{ID: ObjID(i), Kind: ObjMutex, Name: fmt.Sprintf("m%d", i)})
	}
	var tm Time
	for i := 0; i < n; i++ {
		e := Event{Seq: uint64(i + 1), Thread: ThreadID(i % 16), Kind: EventKind(1 + i%int(evKindMax-1)), Obj: ObjID(i%8 - 1), Arg: int64(i % 3)}
		tm += Time(i % 2)
		if off := i % binaryChunk; off < 3 || off > binaryChunk-3 || i%1000 == 0 {
			tm += 64 + Time(i)
			e.Thread = ThreadID(64 + i%136)
			e.Obj = ObjID(64 + i%236)
			e.Arg = -1 - int64(i%2)*int64(i)
		}
		e.T = tm
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// TestBinaryRoundTripChunkEdges: a trace of 3×65,536+5 events (many
// full decode chunks and a few events more) round-trips exactly,
// including the multi-byte records that sit on chunk edges, where the
// delta chain carries over from one chunk into the next.
func TestBinaryRoundTripChunkEdges(t *testing.T) {
	tr := chunkEdgeTrace(3<<16 + 5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		for i := range tr.Events {
			if i < len(got.Events) && got.Events[i] != tr.Events[i] {
				t.Fatalf("event %d: got %+v, want %+v", i, got.Events[i], tr.Events[i])
			}
		}
		t.Fatal("round trip mismatch")
	}
}

// TestDecodeBinaryRejectsBadEvents: ordering, thread range and
// truncation are still caught, on both sides of a chunk boundary.
func TestDecodeBinaryRejectsBadEvents(t *testing.T) {
	encode := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, i := range []int{1, binaryChunk - 1, binaryChunk, binaryChunk + 1} {
		tr := chunkEdgeTrace(binaryChunk + 5)
		tr.Events[i].T = tr.Events[i-1].T - 1
		_, err := DecodeBinary(encode(tr))
		if want := fmt.Sprintf("event %d out of order", i); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("T step back at %d: err = %v, want %q", i, err, want)
		}

		tr = chunkEdgeTrace(binaryChunk + 5)
		tr.Events[i].T = tr.Events[i-1].T
		tr.Events[i].Seq = tr.Events[i-1].Seq
		_, err = DecodeBinary(encode(tr))
		if want := fmt.Sprintf("event %d out of order", i); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("repeated (T, Seq) at %d: err = %v, want %q", i, err, want)
		}

		tr = chunkEdgeTrace(binaryChunk + 5)
		tr.Events[i].Thread = ThreadID(len(tr.Threads))
		_, err = DecodeBinary(encode(tr))
		if want := fmt.Sprintf("event %d: thread %d out of range", i, len(tr.Threads)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("thread out of range at %d: err = %v, want %q", i, err, want)
		}
	}

	// Truncation inside the second chunk's first record: wide records
	// keep the header's event count within the bytes that remain, so
	// the batch decoder itself must notice the cut.
	tr := chunkEdgeTrace(binaryChunk + 5)
	for i := range tr.Events {
		tr.Events[i].Arg = 1 << 40
	}
	data := encode(tr)
	var tail int
	for i := binaryChunk; i < len(tr.Events); i++ {
		tail += len(AppendEvent(nil, tr.Events[i], tr.Events[i-1]))
	}
	cut := data[:len(data)-tail+2]
	_, err := DecodeBinary(cut)
	if err == nil || !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), fmt.Sprintf("event %d", binaryChunk)) {
		t.Errorf("cut in event %d: err = %v, want truncation there", binaryChunk, err)
	}
}
