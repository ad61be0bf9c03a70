package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// FuzzReadBinary: arbitrary bytes must never panic the decoder;
// DecodeBinary and ReadBinary must agree on every input, and so must
// the event section decoded in parts of 1 to 5 records and in one; and
// anything they accept must re-encode and decode to the same trace.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid encoding and a few mutations.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, buildSampleTrace()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("CLTR"))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 10 {
		mutated[8] ^= 0xff
	}
	f.Add(mutated)
	for _, s := range splitSeeds(f) {
		f.Add(s.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeBinary(data)
		tr2, err2 := ReadBinary(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("DecodeBinary and ReadBinary disagree: %v vs %v", err, err2)
		}
		checkSplitDecode(t, data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		tr3, err := DecodeBinary(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if !reflect.DeepEqual(tr3, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", tr3, tr)
		}
	})
}

// FuzzDecode: whatever the bytes, Decode ends in a trace or an error,
// never a panic, and a trace it accepts in either encoding survives a
// binary round trip unchanged. Binary decodes in parts of 1 to 5
// records agree with the one-part decode.
func FuzzDecode(f *testing.F) {
	var bin, js bytes.Buffer
	if err := WriteBinary(&bin, buildSampleTrace()); err != nil {
		f.Fatal(err)
	}
	if err := WriteJSON(&js, buildSampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	f.Add(js.Bytes())
	f.Add([]byte("CLTS\x01\x02\x04main\x01"))
	f.Add([]byte(" \t\r\n"))
	f.Add([]byte{})
	for _, s := range splitSeeds(f) {
		f.Add(s.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkSplitDecode(t, data)
		tr, err := Decode(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("binary encode of a decoded trace failed: %v", err)
		}
		tr2, err := Decode(out.Bytes())
		if err != nil {
			t.Fatalf("re-decode of the binary encoding failed: %v", err)
		}
		if !reflect.DeepEqual(tr2, tr) {
			t.Fatalf("binary round trip changed the trace:\n got %+v\nwant %+v", tr2, tr)
		}
	})
}

// FuzzDecodeEvent: arbitrary bytes must never panic the per-event
// decoder, and whatever it accepts must re-encode to bytes that decode
// to the same event (the round-trip segment files depend on).
func FuzzDecodeEvent(f *testing.F) {
	prev := Event{T: 100, Seq: 5, Thread: 1}
	f.Add(AppendEvent(nil, Event{T: 107, Seq: 6, Thread: 2, Kind: EvLockObtain, Obj: 3, Arg: LockArgContended}, prev))
	f.Add(AppendEvent(nil, Event{T: 107, Seq: 9, Thread: 0, Kind: EvThreadStart, Obj: NoObj}, prev))
	f.Add(AppendEvent(nil, Event{T: 109, Seq: 7, Thread: 1, Kind: EvChanSend, Obj: 4, Arg: ChanArgBlocked | ChanArgSelect}, prev))
	f.Add(AppendEvent(nil, Event{T: 112, Seq: 8, Thread: 2, Kind: EvChanRecv, Obj: 4, Arg: ChanArgClosed}, prev))
	f.Add(AppendEvent(nil, Event{T: 113, Seq: 10, Thread: 0, Kind: EvSelect, Obj: NoObj, Arg: 1}, prev))
	chanEnc := AppendEvent(nil, Event{T: 115, Seq: 11, Thread: 1, Kind: EvChanClose, Obj: 5}, prev)
	f.Add(chanEnc)
	f.Add(chanEnc[:len(chanEnc)/2]) // truncated channel frame
	chanFlip := append([]byte(nil), chanEnc...)
	chanFlip[0] ^= 0x80 // bit-flipped channel frame
	f.Add(chanFlip)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := DecodeEvent(data, prev)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeEvent consumed %d of %d bytes", n, len(data))
		}
		enc := AppendEvent(nil, e, prev)
		e2, n2, err := DecodeEvent(enc, prev)
		if err != nil {
			t.Fatalf("re-decode of re-encode failed: %v", err)
		}
		if n2 != len(enc) || e2 != e {
			t.Fatalf("round trip changed event: %+v -> %+v", e, e2)
		}
	})
}

// FuzzAppendFrame: the batch frame decoder must agree with a plain
// loop of DecodeEvent on every input — the decoded events, the bytes
// consumed, the error text and Len at the error — whichever record
// shape (narrow, wide ΔT, general) each record takes.
func FuzzAppendFrame(f *testing.F) {
	shape := func(dts ...Time) []byte {
		evs := syntheticEvents(len(dts))
		var t Time
		for i, d := range dts {
			t += d
			evs[i].T = t
		}
		return frameFor(evs)
	}
	f.Add(shape(1, 2, 3, 1, 2, 3, 1, 2), uint8(7))             // narrow
	f.Add(shape(100, -100, 8191, -8192, 3, 1, 2, 1), uint8(7)) // 2-byte ΔT
	f.Add(shape(9000, 1048575, -1048576, 1, 5e5, 2), uint8(5)) // 3-byte ΔT
	f.Add(shape(1, 2, 1048576, 3, 1, 2), uint8(5))             // 4-byte ΔT
	f.Add(shape(1, 300)[6:], uint8(0))                         // wide record within 8 bytes of the end
	back := syntheticEvents(4)
	back[2].Seq = 0 // 10-byte negative ΔSeq, convoy's back-step shape
	f.Add(frameFor(back), uint8(3))
	for _, mut := range []func(*Event){
		func(e *Event) { e.Kind = evKindMax },
		func(e *Event) { e.Obj = NoObj - 1 },
	} {
		evs := syntheticEvents(4)
		for i := range evs {
			evs[i].T = Time(i) * 5000
		}
		mut(&evs[2]) // inside a wide record
		f.Add(frameFor(evs), uint8(3))
	}
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		checkAppendFrame(t, data, 1+int(n)%64)
	})
}

// FuzzValidate holds Validate to the map-based oracle
// (validateWithMaps): on every event soup both return nil, or both
// return the same problems. The soups have three threads and
// soupPerKind objects of each kind, so one thread can have more than
// inlineObjs objects in use at once and reach the map fallback. The
// seeds cover every problem class, the fallback and the problem cap.
func FuzzValidate(f *testing.F) {
	for _, s := range validateSeeds() {
		f.Add(soup(s.evs...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, soupTrace(data))
	})
}
