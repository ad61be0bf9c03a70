package segment

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"critlock/internal/trace"
)

// FileWriter writes one segment file. Events must be appended in
// canonical (T, Seq) order; the writer frames them, maintains the
// footer index and finishes the file with footer and trailer on Close.
type FileWriter struct {
	f    *os.File
	bw   *bufio.Writer
	crc  hash.Hash32
	path string
	off  int64 // bytes emitted into the body (header + frames)

	frame       []byte // current frame's encoded payload
	frameCount  int
	framePrev   trace.Event
	frameEvents int

	ftr       Footer
	prev      trace.Event
	thrCounts map[trace.ThreadID]int
	locks     map[trace.ObjID]*LockSummary
	chans     map[trace.ObjID]*ChanSummary
	err       error
}

// NewFileWriter creates (truncating) a segment file at path.
func NewFileWriter(path string, opts Options) (*FileWriter, error) {
	opts = opts.withDefaults()
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &FileWriter{
		f:           f,
		bw:          bufio.NewWriter(f),
		crc:         crc32.NewIEEE(),
		path:        path,
		frameEvents: opts.FrameEvents,
		thrCounts:   map[trace.ThreadID]int{},
		locks:       map[trace.ObjID]*LockSummary{},
		chans:       map[trace.ObjID]*ChanSummary{},
	}
	w.body([]byte(segMagic))
	w.body(binary.AppendUvarint(nil, segVersion))
	return w, nil
}

// body writes p to the file and folds it into the body CRC.
func (w *FileWriter) body(p []byte) {
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

// Path returns the file's path.
func (w *FileWriter) Path() string { return w.path }

// Count returns the number of events appended so far.
func (w *FileWriter) Count() int { return w.ftr.Count }

// Append adds one event. Events must arrive in strictly increasing
// (T, Seq) order.
func (w *FileWriter) Append(e trace.Event) error {
	if w.err != nil {
		return w.err
	}
	if w.ftr.Count > 0 && !trace.Less(w.prev, e) {
		w.err = fmt.Errorf("segment: %s: event out of order (t=%d seq=%d after t=%d seq=%d)",
			filepath.Base(w.path), e.T, e.Seq, w.prev.T, w.prev.Seq)
		return w.err
	}
	if e.Obj < 0 && summarized(e.Kind) {
		// The footer stores lock and channel IDs unsigned; the reader
		// would reject the segment.
		w.err = fmt.Errorf("segment: %s: %s event on object %d",
			filepath.Base(w.path), e.Kind, e.Obj)
		return w.err
	}
	if w.frameCount == 0 {
		w.framePrev = trace.Event{}
	}
	w.frame = trace.AppendEvent(w.frame, e, w.framePrev)
	w.framePrev = e
	w.frameCount++

	if w.ftr.Count == 0 {
		w.ftr.MinT, w.ftr.FirstSeq = e.T, e.Seq
	}
	w.ftr.MaxT, w.ftr.LastSeq = e.T, e.Seq
	w.ftr.Count++
	w.prev = e
	w.thrCounts[e.Thread]++
	switch e.Kind {
	case trace.EvLockAcquire:
		w.lockSum(e.Obj).Acquires++
	case trace.EvLockObtain:
		ls := w.lockSum(e.Obj)
		ls.Obtains++
		if e.Contended() {
			ls.Contended++
		}
	case trace.EvLockRelease:
		w.lockSum(e.Obj).Releases++
	case trace.EvChanSend:
		cs := w.chanSum(e.Obj)
		cs.Sends++
		if e.ChanBlocked() {
			cs.BlockedSends++
		}
	case trace.EvChanRecv:
		cs := w.chanSum(e.Obj)
		cs.Recvs++
		if e.ChanBlocked() {
			cs.BlockedRecvs++
		}
	case trace.EvChanClose:
		w.chanSum(e.Obj).Closes++
	}

	if w.frameCount >= w.frameEvents {
		w.flushFrame()
	}
	return w.err
}

// summarized reports whether the footer counts events of kind k per
// object.
func summarized(k trace.EventKind) bool {
	switch k {
	case trace.EvLockAcquire, trace.EvLockObtain, trace.EvLockRelease,
		trace.EvChanSend, trace.EvChanRecv, trace.EvChanClose:
		return true
	}
	return false
}

func (w *FileWriter) lockSum(obj trace.ObjID) *LockSummary {
	ls := w.locks[obj]
	if ls == nil {
		ls = &LockSummary{Obj: obj}
		w.locks[obj] = ls
	}
	return ls
}

func (w *FileWriter) chanSum(obj trace.ObjID) *ChanSummary {
	cs := w.chans[obj]
	if cs == nil {
		cs = &ChanSummary{Obj: obj}
		w.chans[obj] = cs
	}
	return cs
}

func (w *FileWriter) flushFrame() {
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

// Close flushes the last frame, writes footer and trailer and closes
// the file, returning the final footer.
func (w *FileWriter) Close() (*Footer, error) {
	if w.err != nil {
		w.f.Close()
		return nil, w.err
	}
	w.flushFrame()

	w.ftr.ThreadCounts = w.ftr.ThreadCounts[:0]
	for tid, c := range w.thrCounts {
		w.ftr.ThreadCounts = append(w.ftr.ThreadCounts, ThreadCount{Thread: tid, Count: c})
	}
	slices.SortFunc(w.ftr.ThreadCounts, func(a, b ThreadCount) int { return int(a.Thread) - int(b.Thread) })
	w.ftr.Locks = w.ftr.Locks[:0]
	for _, ls := range w.locks {
		w.ftr.Locks = append(w.ftr.Locks, *ls)
	}
	slices.SortFunc(w.ftr.Locks, func(a, b LockSummary) int { return int(a.Obj) - int(b.Obj) })
	w.ftr.Chans = w.ftr.Chans[:0]
	for _, cs := range w.chans {
		w.ftr.Chans = append(w.ftr.Chans, *cs)
	}
	slices.SortFunc(w.ftr.Chans, func(a, b ChanSummary) int { return int(a.Obj) - int(b.Obj) })

	footerOff := w.off
	payload := appendFooter(nil, &w.ftr)
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(payload)+trailerSize)
	out = append(out, footerTag)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint32(out, w.crc.Sum32())
	out = binary.LittleEndian.AppendUint32(out, crcOf(payload))
	out = binary.LittleEndian.AppendUint64(out, uint64(footerOff))
	out = append(out, segEndMagic...)
	if w.err == nil {
		if _, err := w.bw.Write(out); err != nil {
			w.err = err
		}
	}
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	if w.err != nil {
		return nil, w.err
	}
	return &w.ftr, nil
}

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
	cur    *FileWriter
	segs   []SegmentInfo
	prev   trace.Event
	total  int
	closed bool
	err    error
}

// NewWriter creates dir (if needed) and returns a Writer into it.
func NewWriter(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Writer{dir: dir, opts: opts.withDefaults(), meta: map[string]string{}}, nil
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
	if w.total > 0 && !trace.Less(w.prev, e) {
		w.err = fmt.Errorf("segment: event out of order (t=%d seq=%d after t=%d seq=%d)",
			e.T, e.Seq, w.prev.T, w.prev.Seq)
		return w.err
	}
	if w.cur == nil {
		name := fmt.Sprintf("seg-%06d.clsg", len(w.segs))
		fw, err := NewFileWriter(filepath.Join(w.dir, name), w.opts)
		if err != nil {
			w.err = err
			return err
		}
		w.cur = fw
	}
	if err := w.cur.Append(e); err != nil {
		w.err = err
		return err
	}
	w.prev = e
	w.total++
	if w.cur.Count() >= w.opts.SegmentEvents {
		w.err = w.rollSegment()
	}
	return w.err
}

func (w *Writer) rollSegment() error {
	ftr, err := w.cur.Close()
	if err != nil {
		return err
	}
	w.segs = append(w.segs, SegmentInfo{
		Name:     filepath.Base(w.cur.Path()),
		First:    w.total - ftr.Count,
		Count:    ftr.Count,
		MinT:     ftr.MinT,
		MaxT:     ftr.MaxT,
		FirstSeq: ftr.FirstSeq,
		LastSeq:  ftr.LastSeq,
	})
	w.cur = nil
	return nil
}

// Close finishes the open segment and writes the manifest.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		if w.cur != nil {
			w.cur.Close()
		}
		return w.err
	}
	if w.cur != nil && w.cur.Count() > 0 {
		w.err = w.rollSegment()
	} else if w.cur != nil {
		w.cur.Close()
		os.Remove(w.cur.Path())
		w.cur = nil
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
