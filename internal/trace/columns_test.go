package trace

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// frameFor encodes evs as one frame payload (delta chain reset at the
// frame start), the layout AppendFrame decodes.
func frameFor(evs []Event) []byte {
	var buf []byte
	prev := Event{}
	for _, e := range evs {
		buf = AppendEvent(buf, e, prev)
		prev = e
	}
	return buf
}

func syntheticEvents(n int) []Event {
	evs := make([]Event, n)
	t := Time(0)
	for i := range evs {
		t += Time(1 + i%3)
		evs[i] = Event{
			T:      t,
			Seq:    uint64(i),
			Thread: ThreadID(i % 7),
			Kind:   EventKind(1 + i%int(evKindMax-1)),
			Obj:    ObjID(i % 5),
			Arg:    int64(i%11) - 5,
		}
	}
	return evs
}

func TestAppendFrameMatchesDecodeEvent(t *testing.T) {
	evs := syntheticEvents(1000)
	// Mix in records that force the general path: multi-byte varints.
	evs[100].T = evs[99].T + 1<<40
	for i := 101; i < len(evs); i++ {
		evs[i].T += 1 << 40
	}
	evs[500].Arg = 1 << 50
	evs[700].Thread = 90
	buf := frameFor(evs)

	var cols Columns
	used, err := cols.AppendFrame(buf, len(evs))
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	if used != len(buf) {
		t.Fatalf("AppendFrame used %d bytes, want %d", used, len(buf))
	}
	if cols.Len() != len(evs) {
		t.Fatalf("AppendFrame decoded %d events, want %d", cols.Len(), len(evs))
	}
	for i, want := range evs {
		if got := cols.Event(i); got != want {
			t.Fatalf("event %d: got %+v, want %+v", i, got, want)
		}
	}
}

func TestAppendFrameInvalid(t *testing.T) {
	evs := syntheticEvents(4)
	tests := []struct {
		name   string
		mutate func([]Event)
		want   string
	}{
		{"bad kind", func(e []Event) { e[2].Kind = evKindMax }, "invalid event kind"},
		{"bad obj", func(e []Event) { e[2].Obj = NoObj - 1 }, "out of range"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mut := make([]Event, len(evs))
			copy(mut, evs)
			tc.mutate(mut)
			var cols Columns
			_, err := cols.AppendFrame(frameFor(mut), len(mut))
			if err == nil {
				t.Fatalf("AppendFrame accepted %s", tc.name)
			}
			if got := err.Error(); !strings.Contains(got, tc.want) {
				t.Fatalf("error %q, want substring %q", got, tc.want)
			}
			// The decoded prefix must stay consistent across columns.
			if cols.Len() != 2 {
				t.Fatalf("prefix length %d, want 2", cols.Len())
			}
			for i := 0; i < cols.Len(); i++ {
				if got := cols.Event(i); got != evs[i] {
					t.Fatalf("prefix event %d: got %+v, want %+v", i, got, evs[i])
				}
			}
		})
	}
}

// decodeFrameRef is the plain reference for AppendFrame: one
// DecodeEvent call per record, carrying (T, Seq) down the delta chain.
// It returns the events decoded before any error.
func decodeFrameRef(buf []byte, count int) ([]Event, int, error) {
	var evs []Event
	var prev Event
	pos := 0
	for len(evs) < count {
		e, m, err := DecodeEvent(buf[pos:], Event{T: prev.T, Seq: prev.Seq})
		if err != nil {
			return evs, pos, err
		}
		evs = append(evs, e)
		prev = e
		pos += m
	}
	return evs, pos, nil
}

// checkAppendFrame decodes buf with AppendFrame after one sentinel
// event and compares the result with decodeFrameRef: the events, the
// bytes consumed, the error text, and Len at the error.
func checkAppendFrame(t *testing.T, buf []byte, count int) {
	t.Helper()
	sentinel := Event{T: 7, Seq: 3, Thread: 1, Kind: EvLockAcquire, Obj: 2, Arg: 9}
	var cols Columns
	cols.AppendEvents([]Event{sentinel})
	used, err := cols.AppendFrame(buf, count)
	want, wantUsed, wantErr := decodeFrameRef(buf, count)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("AppendFrame error %v, DecodeEvent loop %v", err, wantErr)
	}
	if err == nil && used != wantUsed {
		t.Fatalf("AppendFrame consumed %d bytes, DecodeEvent loop %d", used, wantUsed)
	}
	if cols.Len() != 1+len(want) {
		t.Fatalf("AppendFrame left Len %d, want %d", cols.Len(), 1+len(want))
	}
	if got := cols.Event(0); got != sentinel {
		t.Fatalf("sentinel changed: %+v", got)
	}
	for i, w := range want {
		if got := cols.Event(1 + i); got != w {
			t.Fatalf("event %d: got %+v, want %+v", i, got, w)
		}
	}
}

func TestAppendFrameWideDeltas(t *testing.T) {
	// ΔT values at the zigzag varint length boundaries: 1|2 bytes at
	// 63/64 (-64/-65), 2|3 at 8191/8192 (-8192/-8193), and 3|4 at
	// 1048575/1048576 (-1048576/-1048577), past which the record
	// leaves the wide shape for the general path.
	var deltas []Time
	for _, d := range []Time{63, 64, 65, 8191, 8192, 8193, 1048575, 1048576, 1048577} {
		deltas = append(deltas, d, -d)
	}
	withDeltas := func(n int, dt func(i int) Time) []Event {
		evs := syntheticEvents(n)
		var t Time
		for i := range evs {
			t += dt(i)
			evs[i].T = t
		}
		return evs
	}
	frames := map[string][]Event{
		"all wide": withDeltas(len(deltas), func(i int) Time { return deltas[i] }),
		"alternating": withDeltas(2*len(deltas), func(i int) Time {
			if i%2 == 1 {
				return deltas[i/2]
			}
			return Time(i % 3)
		}),
	}
	for _, d := range deltas {
		for pos := 5; pos <= 6; pos++ { // odd and even positions
			frames[fmt.Sprintf("dt %d at %d", d, pos)] = withDeltas(13, func(i int) Time {
				if i == pos {
					return d
				}
				return 1
			})
		}
	}
	for name, evs := range frames {
		t.Run(name, func(t *testing.T) {
			buf := frameFor(evs)
			checkAppendFrame(t, buf, len(evs))
			var cols Columns
			if _, err := cols.AppendFrame(buf, len(evs)); err != nil {
				t.Fatal(err)
			}
			for i, want := range evs {
				if got := cols.Event(i); got != want {
					t.Fatalf("event %d: got %+v, want %+v", i, got, want)
				}
			}
		})
	}

	// An invalid kind or obj inside a wide record fails with
	// DecodeEvent's error and keeps the decoded prefix.
	tests := []struct {
		name   string
		mutate func(*Event)
		want   string
	}{
		{"bad kind", func(e *Event) { e.Kind = evKindMax }, "invalid event kind"},
		{"bad obj", func(e *Event) { e.Obj = NoObj - 1 }, "out of range"},
	}
	for _, tc := range tests {
		for _, dt := range []Time{100, 100000} { // 2- and 3-byte ΔT
			t.Run(fmt.Sprintf("%s dt %d", tc.name, dt), func(t *testing.T) {
				evs := withDeltas(6, func(int) Time { return dt })
				tc.mutate(&evs[3])
				var cols Columns
				_, err := cols.AppendFrame(frameFor(evs), len(evs))
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("error %v, want substring %q", err, tc.want)
				}
				if cols.Len() != 3 {
					t.Fatalf("prefix length %d, want 3", cols.Len())
				}
				for i := 0; i < cols.Len(); i++ {
					if got := cols.Event(i); got != evs[i] {
						t.Fatalf("prefix event %d: got %+v, want %+v", i, got, evs[i])
					}
				}
				checkAppendFrame(t, frameFor(evs), len(evs))
			})
		}
	}
}

func TestAppendFrameTruncated(t *testing.T) {
	evs := syntheticEvents(16)
	buf := frameFor(evs)
	var cols Columns
	if _, err := cols.AppendFrame(buf[:len(buf)-3], len(evs)); err == nil {
		t.Fatal("AppendFrame accepted a truncated frame")
	}
}

// shapedEvents is syntheticEvents with a wide share of records given
// a ΔT whose varint takes two bytes (64 ns to 8 µs) or, with
// threeByte, two or three bytes (up to 1 ms), as in a wall-clock
// recording.
func shapedEvents(n int, wide float64, threeByte bool) []Event {
	evs := syntheticEvents(n)
	rng := rand.New(rand.NewPCG(1, 2))
	var t Time
	for i := range evs {
		d := Time(1 + i%3)
		if rng.Float64() < wide {
			if threeByte && rng.IntN(2) == 0 {
				d = Time(8192 + rng.IntN(1<<20-8192))
			} else {
				d = Time(64 + rng.IntN(8192-64))
			}
		}
		t += d
		evs[i].T = t
	}
	return evs
}

func BenchmarkAppendFrame(b *testing.B) {
	const n = 4096
	for _, shape := range []struct {
		name      string
		wide      float64
		threeByte bool
	}{
		{"narrow", 0, false},
		{"mixed", 0.15, false},
		{"clrt", 0.99, true},
	} {
		b.Run(shape.name, func(b *testing.B) {
			buf := frameFor(shapedEvents(n, shape.wide, shape.threeByte))
			var cols Columns
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cols.Reset(n)
				if _, err := cols.AppendFrame(buf, n); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}

func BenchmarkAppendEvents(b *testing.B) {
	const n = 4096
	evs := syntheticEvents(n)
	var cols Columns
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols.Reset(n)
		cols.AppendEvents(evs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}
