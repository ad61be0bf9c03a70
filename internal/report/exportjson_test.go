package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// oracleExport is the encoding WriteExport must reproduce byte for
// byte: encoding/json's indented form.
func oracleExport(rep *Export) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(rep)
	return buf.Bytes(), err
}

// checkExport holds WriteExport to the oracle: the same bytes, or the
// same error with nothing written.
func checkExport(t testing.TB, name string, rep *Export) {
	t.Helper()
	want, wantErr := oracleExport(rep)
	var got bytes.Buffer
	err := WriteExport(&got, rep)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%s: WriteExport error %v, encoding/json %v", name, err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			t.Errorf("%s: WriteExport error %q, encoding/json %q", name, err, wantErr)
		}
		if !errors.As(err, new(*json.UnsupportedValueError)) {
			t.Errorf("%s: WriteExport error %T, want *json.UnsupportedValueError", name, err)
		}
		if got.Len() != 0 {
			t.Errorf("%s: WriteExport wrote %d bytes before failing", name, got.Len())
		}
	case !bytes.Equal(got.Bytes(), want):
		g, w := got.Bytes(), want
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("%s: WriteExport differs from encoding/json at byte %d (%d vs %d bytes)\ngot:  %q\nwant: %q",
			name, i, len(g), len(w), g[max(0, i-80):min(len(g), i+80)], w[max(0, i-80):min(len(w), i+80)])
	}
}

// poolReports analyzes simulated runs of the paper's workload models
// (the clasrv upload mix), every other one with its hazard section.
func poolReports(t testing.TB) []*Export {
	t.Helper()
	var reps []*Export
	for i, name := range []string{"radiosity", "raytrace", "ldap", "uts", "tsp", "pipeline", "fanin", "deadlockprone"} {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 24, Seed: 1000}), spec, workloads.Params{Threads: 16, Seed: 1000})
		if err != nil {
			t.Fatalf("simulating %s: %v", name, err)
		}
		an, err := core.AnalyzeDefault(tr)
		if err != nil {
			t.Fatalf("analyzing %s: %v", name, err)
		}
		rep := BuildExport(fmt.Sprintf("%016x-%08x", i, i), "trace", false, an)
		if i%2 == 1 || name == "deadlockprone" {
			if rep.Hazards, err = hazard.FromTrace(tr); err != nil {
				t.Fatalf("hazards of %s: %v", name, err)
			}
		}
		reps = append(reps, rep)
	}
	return reps
}

// fill sets every field reachable from v to a non-zero value that
// differs from its neighbours': two elements per slice, a value behind
// every pointer. A field added to Export or to a type it embeds gets a
// value here, so a writer that forgets it no longer matches.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), n)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fill(t, v.Index(i), n)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(t, v.Elem(), n)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	default:
		t.Fatalf("fill: no rule for %s", v.Type())
	}
}

// escapeNames covers every escape class of encoding/json's string
// encoder next to plain names.
var escapeNames = []string{
	"", "plain.lock", "tq[0].qlock", `quo"te`, `back\slash`, "a<b", "a>b", "a&b",
	"ctl\x00\x01\x1f", "bs\b ff\f nl\n cr\r tab\t", "del\x7f", "sep\u2028par\u2029",
	"bad\xff\xfeutf8", "trunc\xe2\x82", "héllo wörld", "emoji 🔒",
}

// specialFloats are encoding/json's format boundaries and edge values.
var specialFloats = []float64{
	0, math.Copysign(0, -1), -1.5, 1e-7, -1e-7, 1e-6, 9.99999e-7, 0.1, 1.0 / 3, 100,
	123456789.125, 1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64,
}

func TestWriteExportMatchesEncodingJSON(t *testing.T) {
	reps := poolReports(t)
	t.Run("pool", func(t *testing.T) {
		for _, rep := range reps {
			checkExport(t, rep.ID, rep)
		}
	})

	t.Run("every field", func(t *testing.T) {
		var rep Export
		n := 0
		fill(t, reflect.ValueOf(&rep).Elem(), &n)
		checkExport(t, "filled", &rep)
		rep.Hazards = nil
		checkExport(t, "filled, no hazards", &rep)
	})

	t.Run("names", func(t *testing.T) {
		for _, name := range escapeNames {
			rep := *reps[0]
			rep.ID, rep.Source = name, name
			rep.Locks = []core.LockStats{{Name: name}}
			rep.Chans = []core.ChanStats{{Name: name}}
			rep.Threads = []core.ThreadStats{{Name: name}}
			rep.Jumps = []TimelineJump{{Kind: name, Obj: name}}
			checkExport(t, fmt.Sprintf("name %q", name), &rep)
		}
	})

	t.Run("floats", func(t *testing.T) {
		for _, f := range specialFloats {
			rep := Export{
				Summary: ExportSummary{Coverage: f},
				Locks: []core.LockStats{{
					CPTimePct: f, ContProbOnCP: -f, InvIncrease: f, SizeIncrease: f,
					AvgInvPerThread: f, AvgContProb: f, WaitTimePct: f, AvgHoldTimePct: f,
				}},
			}
			checkExport(t, fmt.Sprintf("float %g", f), &rep)
		}
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			checkExport(t, fmt.Sprintf("coverage %g", f), &Export{Summary: ExportSummary{Coverage: f}})
			// A lock table past the writer's buffer size still fails
			// before its first byte.
			locks := append(make([]core.LockStats, 100), core.LockStats{AvgHoldTimePct: f})
			checkExport(t, fmt.Sprintf("lock %g", f), &Export{Locks: locks, Timeline: make([]TimelinePiece, 1000)})
		}
	})

	t.Run("nil, empty and omitempty", func(t *testing.T) {
		checkExport(t, "zero", &Export{})
		checkExport(t, "empty slices", &Export{
			Locks: []core.LockStats{}, Chans: []core.ChanStats{}, Threads: []core.ThreadStats{},
			Timeline: []TimelinePiece{}, Jumps: []TimelineJump{}, Hazards: &hazard.Report{},
		})
		checkExport(t, "omitempty", &Export{
			Streamed: true,
			Chans:    []core.ChanStats{{}},
			Timeline: []TimelinePiece{{}, {Wait: true}, {Thread: 1, From: 2, To: 3}},
			Jumps:    []TimelineJump{{}, {Obj: "o"}, {Wait: 7}, {T: 1, From: 2, To: 3, Kind: "k", Obj: "o", Wait: 4}},
		})
	})

	// Concurrent writers share the writer pool.
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, rep := range reps {
					want, _ := oracleExport(rep)
					var got bytes.Buffer
					if err := WriteExport(&got, rep); err != nil || !bytes.Equal(got.Bytes(), want) {
						t.Errorf("%s: concurrent WriteExport differs (err %v)", rep.ID, err)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// chunkWriter records the size of every Write and fails the one at
// index failAt.
type chunkWriter struct {
	bytes.Buffer
	chunks []int
	failAt int
}

var errSink = errors.New("sink failed")

func (c *chunkWriter) Write(p []byte) (int, error) {
	if len(c.chunks) == c.failAt {
		c.chunks = append(c.chunks, len(p))
		return 0, errSink
	}
	c.chunks = append(c.chunks, len(p))
	return c.Buffer.Write(p)
}

// TestWriteExportStreams: a report larger than the writer's buffer
// reaches the destination in several chunks that add up to the
// oracle's bytes, and a failing destination stops the writer with its
// error.
func TestWriteExportStreams(t *testing.T) {
	rep := &Export{Timeline: make([]TimelinePiece, 4*flushAt/50)}
	for i := range rep.Timeline {
		rep.Timeline[i] = TimelinePiece{Thread: trace.ThreadID(i % 24), From: trace.Time(i), To: trace.Time(i + 1), Wait: i%3 == 0}
	}
	want, err := oracleExport(rep)
	if err != nil {
		t.Fatal(err)
	}
	cw := &chunkWriter{failAt: -1}
	if err := WriteExport(cw, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cw.Bytes(), want) {
		t.Fatalf("streamed report differs from encoding/json (%d vs %d bytes)", cw.Len(), len(want))
	}
	if len(cw.chunks) < 3 {
		t.Errorf("%d-byte report written in %d chunks, want several", len(want), len(cw.chunks))
	}

	failing := &chunkWriter{failAt: 1}
	if err := WriteExport(failing, rep); !errors.Is(err, errSink) {
		t.Errorf("WriteExport to a failing writer = %v, want %v", err, errSink)
	}
	if len(failing.chunks) != 2 {
		t.Errorf("WriteExport kept writing after an error: %d writes", len(failing.chunks))
	}
}

// FuzzWriteExport mutates names and float bits and requires
// encoding/json's bytes, or its error with nothing written.
func FuzzWriteExport(f *testing.F) {
	for i, name := range escapeNames {
		fl := specialFloats[i%len(specialFloats)]
		f.Add(name, escapeNames[(i+1)%len(escapeNames)], math.Float64bits(fl), math.Float64bits(-fl), i%2 == 0)
	}
	f.Add("n", "", math.Float64bits(math.NaN()), uint64(0), false)
	f.Fuzz(func(t *testing.T, name, obj string, bits1, bits2 uint64, wait bool) {
		f1, f2 := math.Float64frombits(bits1), math.Float64frombits(bits2)
		var w trace.Time
		if wait {
			w = trace.Time(bits2 >> 1)
		}
		rep := &Export{
			ID:       name,
			Source:   obj,
			Summary:  ExportSummary{Coverage: f1, CPLength: trace.Time(bits1 >> 1)},
			Locks:    []core.LockStats{{Name: name, CPTimePct: f1, SizeIncrease: f2}, {Name: obj, WaitTimePct: f2}},
			Threads:  []core.ThreadStats{{Name: obj}},
			Timeline: []TimelinePiece{{Wait: wait}},
			Jumps:    []TimelineJump{{Kind: name, Obj: obj, Wait: w}},
		}
		if wait {
			rep.Chans = []core.ChanStats{{Name: name}}
		}
		checkExport(t, "fuzz", rep)
	})
}

// BenchmarkWriteExport writes a pool-sized report (the mix's mean is
// near 88 KB: ~700 timeline pieces, ~140 jumps, ~20 locks and threads)
// to a discarding writer.
func BenchmarkWriteExport(b *testing.B) {
	var rep *Export
	for _, r := range poolReports(b) {
		if rep == nil || len(r.Timeline) > len(rep.Timeline) && len(r.Timeline) < 1000 {
			rep = r
		}
	}
	var sink countWriter
	if err := WriteExport(&sink, rep); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(sink))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteExport(&sink, rep); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.Timeline)), "pieces")
	b.ReportMetric(float64(len(rep.Jumps)), "jumps")
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
