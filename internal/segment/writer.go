package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"critlock/internal/trace"
)

// SegmentInfo is one manifest entry: a segment file and its index
// summary. First is the global index of the segment's first event,
// derived cumulatively by the reader.
type SegmentInfo struct {
	Name     string
	First    int
	Count    int
	MinT     trace.Time
	MaxT     trace.Time
	FirstSeq uint64
	LastSeq  uint64
}

// Writer writes a complete segmented trace directory: events in
// canonical order, rolled into segment files of opts.SegmentEvents
// each, plus the manifest on Close.
type Writer struct {
	dir    string
	opts   Options
	meta   map[string]string
	thrs   []trace.ThreadInfo
	objs   []trace.ObjectInfo
	segs   []SegmentInfo
	prev   trace.Event
	total  int
	closed bool
	err    error

	// The open segment file (f is nil between segments): its entry so
	// far, the bytes written into its body (header and frames) and
	// their CRC, and the open frame.
	f          *os.File
	bw         *bufio.Writer
	crc        hash.Hash32
	cur        SegmentInfo
	off        int64
	frame      []byte
	frameCount int
	framePrev  trace.Event
}

// NewWriter creates dir (if needed) and returns a Writer into it.
func NewWriter(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Writer{dir: dir, opts: opts.withDefaults(), meta: map[string]string{}, crc: crc32.NewIEEE()}, nil
}

// SetMeta records a metadata pair for the manifest.
func (w *Writer) SetMeta(key, value string) { w.meta[key] = value }

// SetSkeleton records the thread/object registrations and metadata the
// manifest will carry. Call any time before Close.
func (w *Writer) SetSkeleton(threads []trace.ThreadInfo, objects []trace.ObjectInfo, meta map[string]string) {
	w.thrs = append(w.thrs[:0], threads...)
	w.objs = append(w.objs[:0], objects...)
	for k, v := range meta {
		w.meta[k] = v
	}
}

// Append adds one event. Events must arrive in strictly increasing
// (T, Seq) order across the whole directory.
func (w *Writer) Append(e trace.Event) error {
	if w.err != nil {
		return w.err
	}
	if w.total > 0 && !precedes(w.prev.T, w.prev.Seq, e.T, e.Seq) {
		w.err = fmt.Errorf("segment: event out of order (t=%d seq=%d after t=%d seq=%d)",
			e.T, e.Seq, w.prev.T, w.prev.Seq)
		return w.err
	}
	if e.Obj < 0 && objectEvent(e.Kind) {
		// The analysis indexes per-lock and per-channel state by
		// object ID.
		w.err = fmt.Errorf("segment: %s event on object %d", e.Kind, e.Obj)
		return w.err
	}
	if w.f == nil {
		if w.err = w.openSegment(); w.err != nil {
			return w.err
		}
	}
	if w.frameCount == 0 {
		w.framePrev = trace.Event{}
	}
	w.frame = trace.AppendEvent(w.frame, e, w.framePrev)
	w.framePrev = e
	w.frameCount++
	if w.cur.Count == 0 {
		w.cur.MinT, w.cur.FirstSeq = e.T, e.Seq
	}
	w.cur.MaxT, w.cur.LastSeq = e.T, e.Seq
	w.cur.Count++
	w.prev = e
	w.total++
	if w.frameCount >= w.opts.FrameEvents {
		w.flushFrame()
	}
	if w.err == nil && w.cur.Count >= w.opts.SegmentEvents {
		w.err = w.closeSegment()
	}
	return w.err
}

// objectEvent reports whether events of kind k name a lock or channel
// in Obj.
func objectEvent(k trace.EventKind) bool {
	switch k {
	case trace.EvLockAcquire, trace.EvLockObtain, trace.EvLockRelease,
		trace.EvChanSend, trace.EvChanRecv, trace.EvChanClose:
		return true
	}
	return false
}

// openSegment creates the next segment file and writes its header.
func (w *Writer) openSegment() error {
	name := fmt.Sprintf("seg-%06d.clsg", len(w.segs))
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return err
	}
	if w.bw == nil {
		w.bw = bufio.NewWriter(f)
	} else {
		w.bw.Reset(f)
	}
	w.f, w.cur, w.off = f, SegmentInfo{Name: name, First: w.total}, 0
	w.crc.Reset()
	w.body([]byte(segMagic))
	w.body(binary.AppendUvarint(nil, segVersion))
	return w.err
}

// body writes p to the open segment and folds it into the body CRC.
func (w *Writer) body(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(p); err != nil {
		w.err = err
		return
	}
	w.crc.Write(p)
	w.off += int64(len(p))
}

func (w *Writer) flushFrame() {
	if w.frameCount == 0 {
		return
	}
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	hdr[0] = frameTag
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(w.frameCount))
	n += binary.PutUvarint(hdr[n:], uint64(len(w.frame)))
	w.body(hdr[:n])
	w.body(w.frame)
	w.frame = w.frame[:0]
	w.frameCount = 0
}

// closeSegment flushes the last frame of the open segment, writes its
// footer and trailer, closes the file and adds it to the manifest.
func (w *Writer) closeSegment() error {
	w.flushFrame()
	payload := appendFooter(nil, w.cur)
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(payload)+trailerSize)
	out = append(out, footerTag)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, w.crc.Sum32())
	out = binary.LittleEndian.AppendUint32(out, crcOf(payload))
	out = binary.LittleEndian.AppendUint64(out, uint64(w.off))
	out = append(out, segEndMagic...)
	err := w.err
	if err == nil {
		_, err = w.bw.Write(out)
	}
	if ferr := w.bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	if err != nil {
		return err
	}
	w.segs = append(w.segs, w.cur)
	return nil
}

// Close finishes the open segment and writes the manifest.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.f != nil {
		if w.err != nil {
			w.f.Close()
			return w.err
		}
		w.err = w.closeSegment()
	}
	if w.err != nil {
		return w.err
	}
	return w.writeManifest()
}

func (w *Writer) writeManifest() error {
	buf := append([]byte(nil), manifestMagic...)
	buf = binary.AppendUvarint(buf, manifestVersion)

	keys := make([]string, 0, len(w.meta))
	for k := range w.meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendString(buf, k)
		buf = appendString(buf, w.meta[k])
	}

	buf = binary.AppendUvarint(buf, uint64(len(w.thrs)))
	for _, th := range w.thrs {
		buf = appendString(buf, th.Name)
		buf = binary.AppendVarint(buf, int64(th.Creator))
	}
	buf = binary.AppendUvarint(buf, uint64(len(w.objs)))
	for _, o := range w.objs {
		buf = append(buf, byte(o.Kind))
		buf = appendString(buf, o.Name)
		buf = binary.AppendUvarint(buf, uint64(o.Parties))
	}
	buf = binary.AppendUvarint(buf, uint64(len(w.segs)))
	for _, s := range w.segs {
		buf = appendString(buf, s.Name)
		buf = binary.AppendUvarint(buf, uint64(s.Count))
		buf = binary.AppendVarint(buf, int64(s.MinT))
		buf = binary.AppendVarint(buf, int64(s.MaxT))
		buf = binary.AppendUvarint(buf, s.FirstSeq)
		buf = binary.AppendUvarint(buf, s.LastSeq)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crcOf(buf))
	return os.WriteFile(filepath.Join(w.dir, ManifestName), buf, 0o644)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// WriteTrace writes an in-memory trace as a segmented directory — the
// bulk conversion path (cla -segdir on an existing .cltr file, tests).
func WriteTrace(dir string, tr *trace.Trace, opts Options) error {
	w, err := NewWriter(dir, opts)
	if err != nil {
		return err
	}
	w.SetSkeleton(tr.Threads, tr.Objects, tr.Meta)
	for _, e := range tr.Events {
		if err := w.Append(e); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
