package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Binary trace format.
//
// The format is a compact varint encoding, analogous to the flat event
// records the paper's instrumentation module flushes to disk when the
// instrumented application completes:
//
//	magic   "CLTR"            4 bytes
//	version uvarint           currently 1
//	meta    uvarint count, then (string key, string value) pairs
//	threads uvarint count, then (string name, varint creator) per thread
//	objects uvarint count, then (byte kind, string name, uvarint parties)
//	events  uvarint count, then per event:
//	        varint  delta-T (vs previous event's T)
//	        uvarint delta-Seq (vs previous event's Seq)
//	        uvarint thread
//	        byte    kind
//	        varint  obj
//	        varint  arg
//
// Strings are uvarint length + bytes. Events must already be sorted by
// (T, Seq), which Collector.Finish guarantees; the decoder verifies it.

const (
	binaryMagic   = "CLTR"
	binaryVersion = 1
)

// WriteBinary encodes tr to w in the binary trace format.
func WriteBinary(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	writeUvarint(bw, binaryVersion)

	writeUvarint(bw, uint64(len(tr.Meta)))
	// Deterministic meta order: sort keys.
	for _, k := range sortedKeys(tr.Meta) {
		writeString(bw, k)
		writeString(bw, tr.Meta[k])
	}

	writeUvarint(bw, uint64(len(tr.Threads)))
	for _, th := range tr.Threads {
		writeString(bw, th.Name)
		writeVarint(bw, int64(th.Creator))
	}

	writeUvarint(bw, uint64(len(tr.Objects)))
	for _, o := range tr.Objects {
		if err := bw.WriteByte(byte(o.Kind)); err != nil {
			return err
		}
		writeString(bw, o.Name)
		writeUvarint(bw, uint64(o.Parties))
	}

	writeUvarint(bw, uint64(len(tr.Events)))
	var prevT Time
	var prevSeq uint64
	for _, e := range tr.Events {
		writeVarint(bw, int64(e.T-prevT))
		writeUvarint(bw, e.Seq-prevSeq)
		writeUvarint(bw, uint64(e.Thread))
		if err := bw.WriteByte(byte(e.Kind)); err != nil {
			return err
		}
		writeVarint(bw, int64(e.Obj))
		writeVarint(bw, e.Arg)
		prevT, prevSeq = e.T, e.Seq
	}
	return bw.Flush()
}

// ReadBinary decodes a trace written by WriteBinary. It reads r to the
// end — a regular *os.File into one buffer sized from Stat, any other
// reader through io.ReadAll — and decodes the bytes with DecodeBinary.
func ReadBinary(r io.Reader) (*Trace, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return DecodeBinary(data)
}

// readAll reads r to EOF. A regular file is read into a buffer of its
// Stat size plus one byte, so EOF arrives without regrowing it.
func readAll(r io.Reader) ([]byte, error) {
	f, ok := r.(*os.File)
	if !ok {
		return io.ReadAll(r)
	}
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() {
		return io.ReadAll(r)
	}
	data := make([]byte, 0, fi.Size()+1)
	for {
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
		if len(data) == cap(data) { // the file grew since Stat
			data = append(data, 0)[:len(data)]
		}
	}
}

// binaryChunk is the number of event records DecodeBinary hands
// Columns.AppendFrame at a time. Decode speed is flat from 4K to 64K
// records, but the scratch columns (33 bytes a record) add to the
// peak heap of every small upload a server decodes, so they stay at
// 4K records, about 135 KB.
const binaryChunk = 1 << 12

// Minimum encoded sizes of the binary format's records. A header
// count is checked against the bytes left before anything is
// allocated from it, so a hostile count cannot claim more memory than
// its input could fill.
const (
	minMetaBytes   = 2 // empty key and value
	minThreadBytes = 2 // empty name, one-byte creator
	minObjectBytes = 3 // kind, empty name, one-byte parties
	minEventBytes  = 6 // every varint field in one byte
)

// DecodeBinary decodes a trace written by WriteBinary from data, which
// it does not retain. The event section runs through the same batch
// decoder as segment frames (Columns.AppendFrame), binaryChunk records
// at a time; the decoder checks thread IDs against the thread table and
// strict (T, Seq) order as it materializes the events. A large event
// section is decoded in parts, one per available core (see
// decodeParts), with the same result and the same errors. Bytes after
// the last event are ignored.
func DecodeBinary(data []byte) (*Trace, error) { return decodeBinary(data, 0) }

// decodeBinary is DecodeBinary with the event section split into parts
// of partEvents records (0 = sized by autoPartEvents; partEvents at or
// above the event count decodes it in one part).
func decodeBinary(data []byte, partEvents int) (*Trace, error) {
	if len(data) < len(binaryMagic) {
		return nil, fmt.Errorf("trace: reading magic: %w", ErrTruncated)
	}
	if magic := data[:len(binaryMagic)]; string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	d := binDecoder{data: data, pos: len(binaryMagic)}
	version, err := d.uvarint("version")
	if err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}

	nMeta, err := d.count("meta", minMetaBytes)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Meta: make(map[string]string)}
	for i := 0; i < nMeta; i++ {
		k, err := d.string("meta key")
		if err != nil {
			return nil, err
		}
		v, err := d.string("meta value")
		if err != nil {
			return nil, err
		}
		tr.Meta[k] = v
	}

	nThreads, err := d.count("threads", minThreadBytes)
	if err != nil {
		return nil, err
	}
	tr.Threads = make([]ThreadInfo, nThreads)
	for i := range tr.Threads {
		name, err := d.string("thread name")
		if err != nil {
			return nil, err
		}
		creator, err := d.varint("thread creator")
		if err != nil {
			return nil, err
		}
		tr.Threads[i] = ThreadInfo{ID: ThreadID(i), Name: name, Creator: ThreadID(creator)}
	}

	nObjects, err := d.count("objects", minObjectBytes)
	if err != nil {
		return nil, err
	}
	tr.Objects = make([]ObjectInfo, nObjects)
	for i := range tr.Objects {
		if d.pos >= len(d.data) {
			return nil, fmt.Errorf("trace: object kind: %w", ErrTruncated)
		}
		kind := ObjKind(d.data[d.pos])
		d.pos++
		name, err := d.string("object name")
		if err != nil {
			return nil, err
		}
		parties, err := d.uvarint("object parties")
		if err != nil {
			return nil, err
		}
		if parties > math.MaxInt32 {
			return nil, fmt.Errorf("trace: object parties %d out of range", parties)
		}
		tr.Objects[i] = ObjectInfo{ID: ObjID(i), Kind: kind, Name: name, Parties: int(parties)}
	}

	nEvents, err := d.count("events", minEventBytes)
	if err != nil {
		return nil, err
	}
	tr.Events = make([]Event, nEvents)
	body := d.data[d.pos:]
	if partEvents == 0 {
		partEvents = autoPartEvents(nEvents)
	}
	if partEvents < nEvents && decodeParts(tr.Events, body, partEvents, nThreads) {
		return tr, nil
	}
	// One part: the reference decode, and the one whose errors are
	// reported.
	if _, err := decodeRun(tr.Events, body, 0, nThreads); err != nil {
		return nil, err
	}
	return tr, nil
}

// binDecoder reads the header records of the binary format from an
// in-memory buffer. Each read names what it reads in its error.
type binDecoder struct {
	data []byte
	pos  int
}

func (d *binDecoder) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, varintError(what, n)
	}
	d.pos += n
	return v, nil
}

func (d *binDecoder) varint(what string) (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, varintError(what, n)
	}
	d.pos += n
	return v, nil
}

func varintError(what string, n int) error {
	if n == 0 {
		return fmt.Errorf("trace: %s: %w", what, ErrTruncated)
	}
	return fmt.Errorf("trace: %s: varint overflows 64 bits", what)
}

func (d *binDecoder) string(what string) (string, error) {
	n, err := d.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.data)-d.pos) {
		return "", fmt.Errorf("trace: %s: %w", what, ErrTruncated)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s, nil
}

// count reads a record count and rejects it when the bytes left could
// not hold that many records of at least minSize bytes each.
func (d *binDecoder) count(what string, minSize int) (int, error) {
	n, err := d.uvarint(what + " count")
	if err != nil {
		return 0, err
	}
	if left := len(d.data) - d.pos; n > uint64(left/minSize) {
		return 0, fmt.Errorf("trace: %s count %d exceeds the %d bytes left", what, n, left)
	}
	return int(n), nil
}

// AppendEvent appends the event-record encoding of e — the same varint
// layout WriteBinary uses — to dst, with T and Seq delta-encoded
// against prev. Pass the zero Event as prev at the start of an
// independently decodable block (the segment format resets deltas per
// frame so frames decode without upstream context).
func AppendEvent(dst []byte, e, prev Event) []byte {
	dst = binary.AppendVarint(dst, int64(e.T-prev.T))
	dst = binary.AppendUvarint(dst, e.Seq-prev.Seq)
	dst = binary.AppendUvarint(dst, uint64(e.Thread))
	dst = append(dst, byte(e.Kind))
	dst = binary.AppendVarint(dst, int64(e.Obj))
	return binary.AppendVarint(dst, e.Arg)
}

// DecodeEvent decodes one event record from the front of buf, undoing
// the delta encoding against prev, and returns the event and the
// number of bytes consumed. It rejects invalid kinds and out-of-range
// IDs but does not know the trace's thread table; callers that do must
// range-check Thread themselves.
func DecodeEvent(buf []byte, prev Event) (Event, int, error) {
	// Unsigned reads with the zigzag undone by hand: binary.Uvarint
	// inlines, binary.Varint does not.
	dt, n := binary.Uvarint(buf)
	if n <= 0 {
		return Event{}, 0, errShortEvent
	}
	pos := n
	dseq, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return Event{}, 0, errShortEvent
	}
	pos += n
	thread, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return Event{}, 0, errShortEvent
	}
	pos += n
	if pos >= len(buf) {
		return Event{}, 0, errShortEvent
	}
	kind := EventKind(buf[pos])
	pos++
	uobj, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return Event{}, 0, errShortEvent
	}
	pos += n
	uarg, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return Event{}, 0, errShortEvent
	}
	pos += n
	obj, arg := unzigzag(uobj), unzigzag(uarg)
	if !kind.Valid() {
		return Event{}, 0, fmt.Errorf("trace: invalid event kind %d", kind)
	}
	if thread > math.MaxInt32 {
		return Event{}, 0, fmt.Errorf("trace: event thread %d out of range", thread)
	}
	if obj < int64(NoObj) || obj > math.MaxInt32 {
		return Event{}, 0, fmt.Errorf("trace: event obj %d out of range", obj)
	}
	e := Event{
		T:      prev.T + Time(unzigzag(dt)),
		Seq:    prev.Seq + dseq,
		Thread: ThreadID(thread),
		Kind:   kind,
		Obj:    ObjID(obj),
		Arg:    arg,
	}
	return e, pos, nil
}

// unzigzag undoes the zigzag mapping of binary.PutVarint.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

var errShortEvent = fmt.Errorf("trace: %w event record", ErrTruncated)

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; meta maps are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
