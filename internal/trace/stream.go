package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Streaming trace format.
//
// The batch format (WriteBinary) requires the whole trace in memory
// and is written once at the end of a run — fine for the simulator,
// wasteful for long live recordings. The stream format interleaves
// registration and event records in emission order so a recording can
// be spilled to disk continuously and survives truncation (a crash
// loses only the tail):
//
//	magic "CLTS", uvarint version
//	records, each starting with a tag byte:
//	  1 meta    (string key, string value)
//	  2 thread  (string name, varint creator)
//	  3 object  (byte kind, string name, uvarint parties)
//	  4 event   (varint delta-T vs previous event record, uvarint
//	             thread, byte kind, varint obj, varint arg)
//	  5 end
//
// Event sequence numbers are assigned by arrival order at the stream
// (they are a tie-breaker, not a causality record). ReadStream sorts
// by (T, Seq) and tolerates a missing end record.

const (
	streamMagic   = "CLTS"
	streamVersion = 1

	recMeta   = 1
	recThread = 2
	recObject = 3
	recEvent  = 4
	recEnd    = 5
)

// StreamWriter spills trace records to w as they happen. It is safe
// for concurrent use (the live backend emits from many goroutines).
// Attach to a Collector with Collector.SetSink.
type StreamWriter struct {
	mu    sync.Mutex
	w     *bufio.Writer
	prevT Time
	err   error
	ended bool
}

// NewStreamWriter writes the stream header and returns the writer.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(streamMagic); err != nil {
		return nil, err
	}
	sw := &StreamWriter{w: bw}
	writeUvarint(bw, streamVersion)
	return sw, sw.w.Flush()
}

func (sw *StreamWriter) record(tag byte, fill func()) error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	if sw.ended {
		sw.err = fmt.Errorf("trace: stream already closed")
		return sw.err
	}
	if err := sw.w.WriteByte(tag); err != nil {
		sw.err = err
		return err
	}
	fill()
	return sw.err
}

// Meta records a metadata pair.
func (sw *StreamWriter) Meta(key, value string) error {
	return sw.record(recMeta, func() {
		writeString(sw.w, key)
		writeString(sw.w, value)
	})
}

// Thread records a thread registration. Threads must be registered in
// ID order (the Collector guarantees this).
func (sw *StreamWriter) Thread(name string, creator ThreadID) error {
	return sw.record(recThread, func() {
		writeString(sw.w, name)
		writeVarint(sw.w, int64(creator))
	})
}

// Object records a synchronization object registration in ID order.
func (sw *StreamWriter) Object(kind ObjKind, name string, parties int) error {
	return sw.record(recObject, func() {
		sw.w.WriteByte(byte(kind))
		writeString(sw.w, name)
		writeUvarint(sw.w, uint64(parties))
	})
}

// Event records one event.
func (sw *StreamWriter) Event(e Event) error {
	return sw.record(recEvent, func() {
		writeVarint(sw.w, int64(e.T-sw.prevT))
		sw.prevT = e.T
		writeUvarint(sw.w, uint64(e.Thread))
		sw.w.WriteByte(byte(e.Kind))
		writeVarint(sw.w, int64(e.Obj))
		writeVarint(sw.w, e.Arg)
	})
}

// Close writes the end record and flushes. The underlying writer is
// not closed.
func (sw *StreamWriter) Close() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	if sw.ended {
		return nil
	}
	sw.ended = true
	if err := sw.w.WriteByte(recEnd); err != nil {
		sw.err = err
		return err
	}
	sw.err = sw.w.Flush()
	return sw.err
}

// Flush forces buffered records out (checkpointing a live recording).
func (sw *StreamWriter) Flush() error {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err != nil {
		return sw.err
	}
	return sw.w.Flush()
}

// ReadStream reconstructs a Trace from a stream. A truncated stream
// (no end record, or a record cut mid-way) yields the prefix that was
// durably written, with Truncated reported via the error
// ErrTruncatedStream wrapped — callers may choose to proceed with the
// partial trace.
func ReadStream(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(streamMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading stream magic: %w", err)
	}
	if string(magic) != streamMagic {
		return nil, fmt.Errorf("trace: bad stream magic %q", magic)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading stream version: %w", err)
	}
	if version != streamVersion {
		return nil, fmt.Errorf("trace: unsupported stream version %d", version)
	}

	tr := &Trace{Meta: map[string]string{}}
	var prevT Time
	seq := uint64(0)
	ended := false

loop:
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tag {
		case recMeta:
			k, err := readString(br)
			if err != nil {
				return partialStream(tr, err)
			}
			v, err := readString(br)
			if err != nil {
				return partialStream(tr, err)
			}
			tr.Meta[k] = v
		case recThread:
			name, err := readString(br)
			if err != nil {
				return partialStream(tr, err)
			}
			creator, err := binary.ReadVarint(br)
			if err != nil {
				return partialStream(tr, err)
			}
			tr.Threads = append(tr.Threads, ThreadInfo{
				ID: ThreadID(len(tr.Threads)), Name: name, Creator: ThreadID(creator),
			})
		case recObject:
			kind, err := br.ReadByte()
			if err != nil {
				return partialStream(tr, err)
			}
			name, err := readString(br)
			if err != nil {
				return partialStream(tr, err)
			}
			parties, err := binary.ReadUvarint(br)
			if err != nil {
				return partialStream(tr, err)
			}
			tr.Objects = append(tr.Objects, ObjectInfo{
				ID: ObjID(len(tr.Objects)), Kind: ObjKind(kind), Name: name, Parties: int(parties),
			})
		case recEvent:
			dt, err := binary.ReadVarint(br)
			if err != nil {
				return partialStream(tr, err)
			}
			thread, err := binary.ReadUvarint(br)
			if err != nil {
				return partialStream(tr, err)
			}
			kind, err := br.ReadByte()
			if err != nil {
				return partialStream(tr, err)
			}
			obj, err := binary.ReadVarint(br)
			if err != nil {
				return partialStream(tr, err)
			}
			arg, err := binary.ReadVarint(br)
			if err != nil {
				return partialStream(tr, err)
			}
			if !EventKind(kind).Valid() {
				return nil, fmt.Errorf("trace: stream event %d: invalid kind %d", seq, kind)
			}
			if thread >= uint64(len(tr.Threads)) {
				return nil, fmt.Errorf("trace: stream event %d: thread %d not registered", seq, thread)
			}
			seq++
			prevT += Time(dt)
			tr.Events = append(tr.Events, Event{
				T: prevT, Seq: seq, Thread: ThreadID(thread),
				Kind: EventKind(kind), Obj: ObjID(obj), Arg: arg,
			})
		case recEnd:
			ended = true
			break loop
		default:
			return nil, fmt.Errorf("trace: unknown stream record tag %d", tag)
		}
	}

	SortEvents(tr.Events)
	if !ended {
		return tr, fmt.Errorf("trace: %w", ErrTruncatedStream)
	}
	return tr, nil
}

// ErrTruncatedStream marks a stream without an end record; the
// returned trace holds the durable prefix.
var ErrTruncatedStream = fmt.Errorf("stream %w (no end record)", ErrTruncated)

// partialStream is returned when a record was cut mid-way.
func partialStream(tr *Trace, cause error) (*Trace, error) {
	SortEvents(tr.Events)
	return tr, fmt.Errorf("trace: %w (last record cut: %v)", ErrTruncatedStream, cause)
}

var errStringTooLong = errors.New("trace: string too long")

func readString(r *bufio.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", errStringTooLong
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
