package trace

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// splitPartSizes are the part sizes the split-decode differential
// forces on small inputs.
var splitPartSizes = []int{1, 2, 3, 4, 5}

// checkSplitDecode requires decoding data in parts of every size in
// splitPartSizes to give what the one-part decode gives: a DeepEqual
// trace, or the same error text (and so the same event index). A large
// input gets larger parts, so that no decode starts more than 64
// goroutines (an event record takes at least 6 bytes).
func checkSplitDecode(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := decodeBinary(data, math.MaxInt)
	for _, part := range splitPartSizes {
		part = max(part, len(data)/(6*64)+1)
		got, err := decodeBinary(data, part)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("parts of %d: err = %v, one part: %v", part, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parts of %d decode a different trace than one part", part)
		}
	}
}

// partsTrace is 16 events on two threads whose records are 13 bytes
// each (a five-byte arg), so a cut deep in the event section still
// leaves the header's event count within the bytes that remain.
func partsTrace() *Trace {
	tr := &Trace{
		Meta:    map[string]string{},
		Threads: []ThreadInfo{{ID: 0, Name: "a", Creator: NoThread}, {ID: 1, Name: "b", Creator: 0}},
		Objects: []ObjectInfo{{ID: 0, Kind: ObjMutex, Name: "m"}},
	}
	for i := range 16 {
		tr.Events = append(tr.Events, Event{T: Time(10 * i), Seq: uint64(i + 1), Thread: ThreadID(i % 2), Kind: EvLockAcquire, Obj: 0, Arg: 1 << 30})
	}
	return tr
}

// encodeParts encodes tr and returns the byte offset of each event
// record in the encoding.
func encodeParts(t testing.TB, tr *Trace) ([]byte, []int) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	offs := make([]int, len(tr.Events))
	end := len(data)
	for i := len(tr.Events) - 1; i >= 0; i-- {
		prev := Event{}
		if i > 0 {
			prev = tr.Events[i-1]
		}
		end -= len(AppendEvent(nil, tr.Events[i], prev))
		offs[i] = end
	}
	return data, offs
}

// splitSeeds are encodings that go wrong in a later part of a split
// decode (parts of 4 records: events 0–3, 4–7, 8–11, 12–15), each with
// the error the one-part decode reports.
func splitSeeds(t testing.TB) []struct {
	name string
	data []byte
	err  string
} {
	type seed = struct {
		name string
		data []byte
		err  string
	}
	var seeds []seed

	// A kind byte with the high bit set: the six-byte count puts every
	// later part's start one byte early.
	data, offs := encodeParts(t, partsTrace())
	data[offs[9]+3] = 0x85
	seeds = append(seeds, seed{"high kind byte in part 2", data, "invalid event kind 133 (event 9)"})

	// A cut inside event 10.
	data, offs = encodeParts(t, partsTrace())
	seeds = append(seeds, seed{"cut in part 2", data[:offs[10]+4], "truncated event record (event 10)"})

	// Event 8, the first of part 2, steps back in time.
	tr := partsTrace()
	tr.Events[8].T = tr.Events[7].T - 1
	data, _ = encodeParts(t, tr)
	seeds = append(seeds, seed{"out of order at a seam", data, "trace: event 8 out of order"})

	// Event 9 is out of order and event 10's thread is out of range,
	// both in part 2: the order error comes first.
	tr = partsTrace()
	tr.Events[9].T = tr.Events[8].T
	tr.Events[9].Seq = tr.Events[8].Seq
	tr.Events[10].Thread = 7
	data, _ = encodeParts(t, tr)
	seeds = append(seeds, seed{"thread out of range after an order error", data, "trace: event 9 out of order"})
	return seeds
}

// TestSplitDecodeSeeds: each seed reaches a later part of the split
// decode, fails there, and the section is rejected with the one-part
// decode's error at every part size.
func TestSplitDecodeSeeds(t *testing.T) {
	for _, s := range splitSeeds(t) {
		t.Run(s.name, func(t *testing.T) {
			_, err := decodeBinary(s.data, 4)
			if err == nil || !strings.Contains(err.Error(), s.err) {
				t.Fatalf("err = %v, want %q", err, s.err)
			}
			checkSplitDecode(t, s.data)
		})
	}
}

// TestSplitDecodeLarge: a trace of 3×65,536+5 events, multi-byte
// records on every chunk edge, decodes the same in one part, in parts
// of every size from a few chunks to a few records, and with the part
// size DecodeBinary picks for the available cores.
func TestSplitDecodeLarge(t *testing.T) {
	tr := chunkEdgeTrace(3<<16 + 5)
	data, _ := encodeParts(t, tr)
	for _, part := range []int{0, 1 << 16, binaryChunk + 1, binaryChunk, 1000, 3} {
		got, err := decodeBinary(data, part)
		if err != nil {
			t.Fatalf("parts of %d: %v", part, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Fatalf("parts of %d: decoded trace differs", part)
		}
	}
}

// TestSplitDecodeWraps: T and Seq that wrap around mid-trace are
// rebased with the same wrapping sums the one-part decode makes, so a
// wrap that puts events out of order is rejected in parts too.
func TestSplitDecodeWraps(t *testing.T) {
	tr := partsTrace()
	for i := range tr.Events {
		tr.Events[i].T = math.MaxInt64 - 100 + Time(10*i) // wraps at event 11
	}
	data, _ := encodeParts(t, tr)
	checkSplitDecode(t, data)
	if _, err := decodeBinary(data, 4); err == nil || !strings.Contains(err.Error(), "event 11 out of order") {
		t.Errorf("err = %v, want event 11 out of order", err)
	}
}

// TestDecodeBinaryGoroutines: no part goroutine outlives DecodeBinary,
// whether it accepts the section or rejects it.
func TestDecodeBinaryGoroutines(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("DecodeBinary splits only with 2 or more cores")
	}
	tr := chunkEdgeTrace(2*minPartEvents + 5)
	good, offs := encodeParts(t, tr)
	bad := append([]byte(nil), good...)
	bad[offs[len(offs)-3]+3] = 0xff // a high kind byte in the last part
	base := runtime.NumGoroutine()
	if _, err := DecodeBinary(good); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(bad); err == nil {
		t.Fatal("a high kind byte was accepted")
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines after DecodeBinary, %d before", n, base)
	}
}
