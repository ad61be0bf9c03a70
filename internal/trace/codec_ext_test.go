package trace_test

import (
	"bytes"
	"testing"

	"critlock/internal/trace"
)

var decodeErr error

// BenchmarkDecodeBinary reports DecodeBinary's cost per event on a
// 2M-event convoy, the size of the benchmark's convoy_2m trace file.
// With 2 or more cores (-cpu) the event section decodes in parts.
func BenchmarkDecodeBinary(b *testing.B) {
	tr := convoyTrace(2_000_000, 1)
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		_, decodeErr = trace.DecodeBinary(buf.Bytes())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tr.Events)), "ns/event")
	if decodeErr != nil {
		b.Fatal(decodeErr)
	}
}
