package report

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"sync"
	"unicode/utf8"

	"critlock/internal/core"
)

// The report writer appends the indented JSON form of an Export field
// by field, byte-identical to json.Encoder with SetIndent("", "  "),
// and streams it to the destination in chunks. encoding/json spends
// most of a report's encode in its indent pass over the compact form;
// writing the indented form directly skips both the reflection and
// that pass. Only the hazards section, small and rare, still goes
// through encoding/json.

const (
	// flushAt is the buffered size past which the writer hands its
	// buffer to the destination (after the head, which holds every
	// float and is written whole, so an encoding error comes first).
	flushAt = 32 << 10
	// maxPooled caps the buffer kept for reuse: a report with a huge
	// lock table grows its head past flushAt, and that buffer is
	// dropped rather than pinned.
	maxPooled = 256 << 10
	// indent is deep enough for the report's deepest member (a lock's
	// field: object → array → object).
	indent = "        "
)

// writerPool holds writers with room for a full buffer plus the element
// that crosses flushAt.
var writerPool = sync.Pool{New: func() any { return &exportWriter{b: make([]byte, 0, flushAt+4<<10)} }}

// WriteExport writes the indented JSON form (the cla -jsonreport
// format, byte-identical to what clasrv serves for the same trace and
// options apart from ID/Source). The form is encoding/json's
// (json.Encoder with SetIndent("", "  ")), written without it. A
// report that cannot be encoded (a NaN or infinite float) returns the
// *json.UnsupportedValueError encoding/json would, before anything is
// written to w; any later error is w's.
func WriteExport(w io.Writer, rep *Export) error {
	var hazards []byte
	if rep.Hazards != nil {
		var err error
		if hazards, err = json.MarshalIndent(rep.Hazards, "  ", "  "); err != nil {
			return err
		}
	}
	e := writerPool.Get().(*exportWriter)
	defer func() {
		if cap(e.b) <= maxPooled {
			*e = exportWriter{b: e.b[:0]}
			writerPool.Put(e)
		}
	}()
	e.w = w

	e.open('{')
	e.key("id")
	e.str(rep.ID)
	e.key("source")
	e.str(rep.Source)
	e.key("streamed")
	e.bool(rep.Streamed)
	e.key("summary")
	e.summary(&rep.Summary)
	e.key("totals")
	e.totals(&rep.Totals)
	e.key("locks")
	writeSlice(e, rep.Locks, (*exportWriter).lock)
	if e.err != nil {
		return e.err
	}
	e.streaming = true
	if len(rep.Chans) > 0 {
		e.key("chans")
		writeSlice(e, rep.Chans, (*exportWriter).channel)
	}
	e.key("threads")
	writeSlice(e, rep.Threads, (*exportWriter).thread)
	e.key("timeline")
	writeSlice(e, rep.Timeline, (*exportWriter).piece)
	e.key("jumps")
	writeSlice(e, rep.Jumps, (*exportWriter).jump)
	if hazards != nil {
		e.key("hazards")
		e.b = append(e.b, hazards...)
	}
	e.close('}')
	e.b = append(e.b, '\n')
	e.flush()
	return e.err
}

// exportWriter appends indented JSON to b, tracking the nesting depth
// and whether the open container has a member yet; err is the first
// encoding or write error, after which nothing more is written. Until
// streaming is set (after the head) nothing is written at all.
type exportWriter struct {
	b         []byte
	w         io.Writer
	depth     int
	empty     bool
	streaming bool
	err       error
}

func (e *exportWriter) flush() {
	if e.err == nil && len(e.b) > 0 {
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
}

func (e *exportWriter) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

// close ends the open container; an empty one stays "[]" or "{}", as
// encoding/json's indent pass leaves it.
func (e *exportWriter) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

// writeSlice writes s as an array, null when nil, one element at a
// time; once the writer streams, it hands on each full buffer.
func writeSlice[T any](e *exportWriter, s []T, write func(*exportWriter, *T)) {
	if s == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('[')
	for i := range s {
		e.elem()
		write(e, &s[i])
		if e.streaming && len(e.b) >= flushAt {
			e.flush()
		}
	}
	e.close(']')
}

func (e *exportWriter) newline() {
	e.b = append(e.b, '\n')
	e.b = append(e.b, indent[:2*e.depth]...)
}

// elem starts the next member of the open container.
func (e *exportWriter) elem() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

// key starts an object member; k is a plain ASCII field name.
func (e *exportWriter) key(k string) {
	e.elem()
	e.b = append(e.b, '"')
	e.b = append(e.b, k...)
	e.b = append(e.b, `": `...)
}

func (e *exportWriter) int(k string, v int64) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *exportWriter) bool(v bool) {
	e.b = strconv.AppendBool(e.b, v)
}

// str copies a string of printable ASCII with nothing to escape
// straight, and leaves any other string to json.Marshal, so its
// escaping (HTML characters, control bytes, U+2028/9, invalid UTF-8)
// is encoding/json's by construction.
func (e *exportWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float writes f as encoding/json does: 'f' format, or 'e' for
// magnitudes below 1e-6 or from 1e21, with a two-digit negative
// exponent shortened (e-09 → e-9). NaN and ±Inf are errors.
func (e *exportWriter) float(k string, f float64) {
	e.key(k)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func (e *exportWriter) summary(s *ExportSummary) {
	e.open('{')
	e.int("cp_length", int64(s.CPLength))
	e.int("exec_time", int64(s.ExecTime))
	e.int("wait_time", int64(s.WaitTime))
	e.int("wall_time", int64(s.WallTime))
	e.float("coverage", s.Coverage)
	e.int("last_thread", int64(s.LastThread))
	e.int("steps", int64(s.Steps))
	e.int("jumps", int64(s.Jumps))
	e.close('}')
}

func (e *exportWriter) totals(t *core.Totals) {
	e.open('{')
	e.int("Threads", int64(t.Threads))
	e.int("Mutexes", int64(t.Mutexes))
	e.int("Channels", int64(t.Channels))
	e.int("Events", int64(t.Events))
	e.int("Invocations", int64(t.Invocations))
	e.int("ContendedInvs", int64(t.ContendedInvs))
	e.int("TotalLockWait", int64(t.TotalLockWait))
	e.int("TotalLockHold", int64(t.TotalLockHold))
	e.int("TotalBarrierWait", int64(t.TotalBarrierWait))
	e.int("TotalCondWait", int64(t.TotalCondWait))
	e.int("TotalChanWait", int64(t.TotalChanWait))
	e.close('}')
}

func (e *exportWriter) lock(l *core.LockStats) {
	e.open('{')
	e.int("Lock", int64(l.Lock))
	e.key("Name")
	e.str(l.Name)
	e.key("Critical")
	e.bool(l.Critical)
	e.int("HoldOnCP", int64(l.HoldOnCP))
	e.float("CPTimePct", l.CPTimePct)
	e.int("InvocationsOnCP", int64(l.InvocationsOnCP))
	e.int("ContendedOnCP", int64(l.ContendedOnCP))
	e.float("ContProbOnCP", l.ContProbOnCP)
	e.float("InvIncrease", l.InvIncrease)
	e.float("SizeIncrease", l.SizeIncrease)
	e.int("TotalInvocations", int64(l.TotalInvocations))
	e.int("SharedInvocations", int64(l.SharedInvocations))
	e.int("TotalContended", int64(l.TotalContended))
	e.float("AvgInvPerThread", l.AvgInvPerThread)
	e.float("AvgContProb", l.AvgContProb)
	e.int("TotalWait", int64(l.TotalWait))
	e.int("TotalHold", int64(l.TotalHold))
	e.float("WaitTimePct", l.WaitTimePct)
	e.float("AvgHoldTimePct", l.AvgHoldTimePct)
	e.int("MaxWait", int64(l.MaxWait))
	e.int("MaxHold", int64(l.MaxHold))
	e.close('}')
}

func (e *exportWriter) channel(c *core.ChanStats) {
	e.open('{')
	e.int("Chan", int64(c.Chan))
	e.key("Name")
	e.str(c.Name)
	e.int("Capacity", int64(c.Capacity))
	e.int("Sends", int64(c.Sends))
	e.int("Recvs", int64(c.Recvs))
	e.int("Closes", int64(c.Closes))
	e.int("BlockedSends", int64(c.BlockedSends))
	e.int("BlockedRecvs", int64(c.BlockedRecvs))
	e.int("SendWait", int64(c.SendWait))
	e.int("RecvWait", int64(c.RecvWait))
	e.int("MaxWait", int64(c.MaxWait))
	e.int("JumpsOnCP", int64(c.JumpsOnCP))
	e.int("WaitOnCP", int64(c.WaitOnCP))
	e.int("TotalWait", int64(c.TotalWait))
	e.close('}')
}

func (e *exportWriter) thread(t *core.ThreadStats) {
	e.open('{')
	e.int("Thread", int64(t.Thread))
	e.key("Name")
	e.str(t.Name)
	e.int("Start", int64(t.Start))
	e.int("End", int64(t.End))
	e.int("Lifetime", int64(t.Lifetime))
	e.int("LockWait", int64(t.LockWait))
	e.int("LockHold", int64(t.LockHold))
	e.int("BarrierWait", int64(t.BarrierWait))
	e.int("CondWait", int64(t.CondWait))
	e.int("ChanWait", int64(t.ChanWait))
	e.int("JoinWait", int64(t.JoinWait))
	e.int("Invocations", int64(t.Invocations))
	e.int("TimeOnCP", int64(t.TimeOnCP))
	e.close('}')
}

func (e *exportWriter) piece(p *TimelinePiece) {
	e.open('{')
	e.int("thread", int64(p.Thread))
	e.int("from", int64(p.From))
	e.int("to", int64(p.To))
	if p.Wait {
		e.key("wait")
		e.bool(true)
	}
	e.close('}')
}

func (e *exportWriter) jump(j *TimelineJump) {
	e.open('{')
	e.int("t", int64(j.T))
	e.int("from", int64(j.From))
	e.int("to", int64(j.To))
	e.key("kind")
	e.str(j.Kind)
	if j.Obj != "" {
		e.key("obj")
		e.str(j.Obj)
	}
	if j.Wait != 0 {
		e.int("wait", int64(j.Wait))
	}
	e.close('}')
}
