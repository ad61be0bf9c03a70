package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"critlock/internal/trace"
)

// Reader reads a segmented trace directory. It implements the
// analyzer's SegmentSource: the skeleton (registrations, metadata, no
// events) plus random access to whole segments decoded into columns
// (LoadColumns), which every analysis pass and report section reads.
//
// Segment files open lazily on first access. Mapped files stay
// mapped, so repeated passes over the same segment never reopen,
// reseek or re-verify them. Under ReadOptions.NoMmap (or where the
// platform cannot map) the reader keeps only each file's frame-region
// offsets: a segment's first load decodes from the whole image it read
// to verify, and every later load reads just the frame region, each
// into a pooled buffer it returns when the decode is done. So a
// buffered analysis holds about one encoded segment per loading
// goroutine rather than the whole trace, and a first load reads no
// byte twice. Checksums, the footer-vs-manifest cross-check and the
// magic/version header are verified exactly once per segment either
// way. Distinct segments may be loaded from distinct goroutines
// concurrently; Close releases every mapping.
type Reader struct {
	dir     string
	opts    ReadOptions
	skel    *trace.Trace
	segs    []SegmentInfo
	total   int
	handles []segHandle
	bufs    sync.Pool // *[]byte frame-region buffers for unmapped loads
}

// ReadOptions configures how a Reader accesses segment files.
type ReadOptions struct {
	// NoMmap forces buffered reads of segment bodies: each load reads
	// the segment's frames into a pooled buffer. The zero value
	// memory-maps each file where the platform supports it and falls
	// back to buffered reads where it does not.
	NoMmap bool
}

// segHandle is the lazily initialized per-segment state: where the
// verified frame region lies in the file, and the mapped file image
// unless the segment is read buffered.
type segHandle struct {
	once    sync.Once
	data    []byte // mapped file image; nil when unmapped
	bodyOff int64  // frame region: after magic+version, up to the footer
	bodyLen int
	err     error

	// verified flips once LoadColumns has checked event ordering,
	// thread ranges and the footer range against this handle's
	// immutable bytes; later loads of the same segment skip those
	// scans. Atomic because parallel passes may load concurrently.
	verified atomic.Bool
}

// Open reads and verifies dir's manifest with default options.
// Segment files themselves are opened lazily on first load.
func Open(dir string) (*Reader, error) { return OpenWith(dir, ReadOptions{}) }

// OpenWith is Open with explicit access options.
func OpenWith(dir string, opts ReadOptions) (*Reader, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	r, err := parseManifest(dir, buf)
	if err != nil {
		return nil, err
	}
	r.opts = opts
	return r, nil
}

// parseManifest verifies and decodes the manifest bytes buf of the
// segment directory dir into a Reader with default options.
func parseManifest(dir string, buf []byte) (*Reader, error) {
	if len(buf) < len(manifestMagic)+1+4 {
		return nil, fmt.Errorf("segment: manifest %w (%d bytes)", trace.ErrTruncated, len(buf))
	}
	if string(buf[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("segment: bad manifest magic %q", buf[:len(manifestMagic)])
	}
	body, sum := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crcOf(body) != sum {
		return nil, fmt.Errorf("segment: manifest %w", trace.ErrChecksum)
	}

	d := byteDecoder{buf: body, pos: len(manifestMagic)}
	if v := d.uvarint(); d.err == nil && v != manifestVersion {
		return nil, fmt.Errorf("segment: unsupported manifest version %d", v)
	}
	skel := &trace.Trace{Meta: map[string]string{}}
	nMeta := d.count("meta")
	for i := uint64(0); i < nMeta && d.err == nil; i++ {
		k := d.string("meta key")
		v := d.string("meta value")
		if d.err == nil {
			skel.Meta[k] = v
		}
	}
	nThreads := d.count("thread")
	for i := uint64(0); i < nThreads && d.err == nil; i++ {
		name := d.string("thread name")
		creator := d.varint()
		if d.err == nil {
			skel.Threads = append(skel.Threads, trace.ThreadInfo{
				ID: trace.ThreadID(i), Name: name, Creator: trace.ThreadID(creator),
			})
		}
	}
	nObjects := d.count("object")
	for i := uint64(0); i < nObjects && d.err == nil; i++ {
		kind := trace.ObjKind(d.byte())
		name := d.string("object name")
		parties := d.count("parties")
		if d.err == nil {
			skel.Objects = append(skel.Objects, trace.ObjectInfo{
				ID: trace.ObjID(i), Kind: kind, Name: name, Parties: int(parties),
			})
		}
	}
	r := &Reader{dir: dir, skel: skel}
	nSegs := d.count("segment")
	for i := uint64(0); i < nSegs && d.err == nil; i++ {
		s := SegmentInfo{
			Name:     d.string("segment name"),
			Count:    int(d.count("segment event")),
			MinT:     trace.Time(d.varint()),
			MaxT:     trace.Time(d.varint()),
			FirstSeq: d.uvarint(),
			LastSeq:  d.uvarint(),
		}
		if d.err != nil {
			break
		}
		if s.Count <= 0 {
			return nil, fmt.Errorf("segment: manifest entry %d (%s) is empty", i, s.Name)
		}
		if filepath.Base(s.Name) != s.Name || s.Name == "." {
			return nil, fmt.Errorf("segment: manifest entry %d has invalid name %q", i, s.Name)
		}
		s.First = r.total
		if len(r.segs) > 0 {
			p := &r.segs[len(r.segs)-1]
			if !precedes(p.MaxT, p.LastSeq, s.MinT, s.FirstSeq) {
				return nil, fmt.Errorf("segment: %s out of order after %s", s.Name, p.Name)
			}
		}
		r.segs = append(r.segs, s)
		r.total += s.Count
	}
	if d.err != nil {
		return nil, fmt.Errorf("segment: manifest: %w", d.err)
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("segment: manifest has %d trailing bytes", len(body)-d.pos)
	}
	r.handles = make([]segHandle, len(r.segs))
	return r, nil
}

// Skeleton returns the trace's registrations and metadata with a nil
// event slice. Callers must not mutate it.
func (r *Reader) Skeleton() *trace.Trace { return r.skel }

// NumEvents returns the total event count across all segments.
func (r *Reader) NumEvents() int { return r.total }

// NumSegments returns the number of segments.
func (r *Reader) NumSegments() int { return len(r.segs) }

// Segment returns the i-th segment's manifest entry.
func (r *Reader) Segment(i int) SegmentInfo { return r.segs[i] }

// SegmentBounds returns the global index of segment i's first event
// and its event count.
func (r *Reader) SegmentBounds(i int) (first, count int) {
	return r.segs[i].First, r.segs[i].Count
}

// openSegment maps (or reads) segment i's file and verifies, once for
// the reader's lifetime: trailer, footer CRC, body CRC, magic/version
// header and the footer-vs-manifest cross-check. A read image is
// returned in a pooled buffer for the caller to decode from and put
// back (nil when mapped or on error).
func (r *Reader) openSegment(i int, h *segHandle) (*[]byte, error) {
	s := r.segs[i]
	f, err := os.Open(filepath.Join(r.dir, s.Name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size > int64(maxCount) {
		return nil, fmt.Errorf("segment: %s is implausibly large (%d bytes)", s.Name, size)
	}
	if !r.opts.NoMmap {
		if data, err := mmapFile(f, size); err == nil {
			if err := r.verify(i, h, data); err != nil {
				munmapFile(data)
				return nil, err
			}
			h.data = data
			return nil, nil
		}
	}
	buf := r.buffer(int(size))
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), *buf); err != nil {
		r.bufs.Put(buf)
		return nil, fmt.Errorf("segment: reading %s: %w", s.Name, err)
	}
	if err := r.verify(i, h, *buf); err != nil {
		r.bufs.Put(buf)
		return nil, err
	}
	return buf, nil
}

// verify checks segment i's whole file image (verifyImage) and its
// footer against the manifest entry, and records where the frames lie.
func (r *Reader) verify(i int, h *segHandle, data []byte) error {
	s := r.segs[i]
	ftr, bodyOff, bodyLen, err := verifyImage(data)
	if err != nil {
		return err
	}
	ftr.Name, ftr.First = s.Name, s.First
	if ftr != s {
		return fmt.Errorf("segment: %s footer disagrees with manifest", s.Name)
	}
	h.bodyOff, h.bodyLen = bodyOff, bodyLen
	return nil
}

// buffer returns a pooled buffer of n bytes. The caller puts it back
// in r.bufs when done with it.
func (r *Reader) buffer(n int) *[]byte {
	buf, _ := r.bufs.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	return buf
}

// frames returns segment i's verified handle and frame region: the
// mapped slice, the region of the image the segment's first load read
// to verify, or the region read from the file into a pooled buffer.
// The caller puts the returned buffer (nil when mapped) back in r.bufs
// once it has decoded the region. Safe for concurrent use.
func (r *Reader) frames(i int) (*segHandle, []byte, *[]byte, error) {
	h := &r.handles[i]
	var image *[]byte
	h.once.Do(func() { image, h.err = r.openSegment(i, h) })
	if h.err != nil {
		return nil, nil, nil, h.err
	}
	if h.data != nil {
		return h, h.data[h.bodyOff : h.bodyOff+int64(h.bodyLen)], nil, nil
	}
	if image != nil {
		return h, (*image)[h.bodyOff : h.bodyOff+int64(h.bodyLen)], image, nil
	}
	buf := r.buffer(h.bodyLen)
	body := *buf
	f, err := os.Open(filepath.Join(r.dir, r.segs[i].Name))
	if err == nil {
		_, err = f.ReadAt(body, h.bodyOff)
		f.Close()
	}
	if err != nil {
		r.bufs.Put(buf)
		return nil, nil, nil, fmt.Errorf("segment: reading %s: %w", r.segs[i].Name, err)
	}
	return h, body, buf, nil
}

// verifyImage checks a whole segment file image — trailer, footer
// CRC, body CRC, magic, version and footer decode — and returns the
// footer's count and range plus the frame region's offset and length
// in the image.
func verifyImage(data []byte) (SegmentInfo, int64, int, error) {
	var none SegmentInfo
	size := int64(len(data))
	if size < int64(len(segMagic))+1+trailerSize {
		return none, 0, 0, fmt.Errorf("segment: file %w (%d bytes)", trace.ErrTruncated, size)
	}
	tr := data[size-trailerSize:]
	if string(tr[16:20]) != segEndMagic {
		return none, 0, 0, fmt.Errorf("segment: bad end magic %q", tr[16:20])
	}
	crcBody := binary.LittleEndian.Uint32(tr[0:4])
	crcFooter := binary.LittleEndian.Uint32(tr[4:8])
	footerOff := int64(binary.LittleEndian.Uint64(tr[8:16]))
	if footerOff < int64(len(segMagic))+1 || footerOff >= size-trailerSize {
		return none, 0, 0, fmt.Errorf("segment: footer offset %d out of range", footerOff)
	}
	fbuf := data[footerOff : size-trailerSize]
	if fbuf[0] != footerTag {
		return none, 0, 0, fmt.Errorf("segment: bad footer tag 0x%02x", fbuf[0])
	}
	plen, n := binary.Uvarint(fbuf[1:])
	if n <= 0 || plen > maxCount {
		return none, 0, 0, errors.New("segment: bad footer length")
	}
	payload := fbuf[1+n:]
	if uint64(len(payload)) != plen {
		return none, 0, 0, fmt.Errorf("segment: footer length %d does not match region %d", plen, len(payload))
	}
	if crcOf(payload) != crcFooter {
		return none, 0, 0, fmt.Errorf("segment: footer %w", trace.ErrChecksum)
	}
	if crcOf(data[:footerOff]) != crcBody {
		return none, 0, 0, fmt.Errorf("segment: body %w", trace.ErrChecksum)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return none, 0, 0, fmt.Errorf("segment: bad magic %q", data[:len(segMagic)])
	}
	version, n := binary.Uvarint(data[len(segMagic):footerOff])
	if n <= 0 {
		return none, 0, 0, fmt.Errorf("segment: reading version: %w", trace.ErrTruncated)
	}
	if version != segVersion && version != segVersionV2 {
		return none, 0, 0, fmt.Errorf("segment: unsupported version %d", version)
	}
	ftr, err := decodeFooter(payload, version)
	if err != nil {
		return none, 0, 0, err
	}
	bodyOff := int64(len(segMagic) + n)
	bodyLen := int(footerOff - bodyOff)
	if ftr.Count > bodyLen {
		// Every event record takes at least a byte; a larger count
		// would size the decode buffers far beyond the file.
		return none, 0, 0, fmt.Errorf("segment: footer count %d exceeds a %d-byte body", ftr.Count, bodyLen)
	}
	return ftr, bodyOff, bodyLen, nil
}

// LoadColumns batch-decodes segment i into cols (reusing its
// capacity), verifying frame structure, event ordering, the footer
// range and that every event's thread is registered. Checksums were
// already verified when the segment's file image was first opened. It
// returns the number of encoded body bytes decoded (for throughput
// accounting).
func (r *Reader) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	s := r.segs[i]
	h, body, buf, err := r.frames(i)
	if err != nil {
		return 0, err
	}
	if buf != nil {
		defer r.bufs.Put(buf)
	}
	cols.Reset(s.Count)
	pos := 0
	for pos < len(body) {
		if body[pos] != frameTag {
			return 0, fmt.Errorf("segment: bad frame tag 0x%02x", body[pos])
		}
		pos++
		count, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("segment: frame header %w", trace.ErrTruncated)
		}
		pos += n
		fsize, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("segment: frame header %w", trace.ErrTruncated)
		}
		pos += n
		if count == 0 || count > maxCount {
			return 0, fmt.Errorf("segment: bad frame count %d", count)
		}
		if fsize > uint64(len(body)-pos) {
			return 0, fmt.Errorf("segment: frame size %d exceeds body", fsize)
		}
		if cols.Len()+int(count) > s.Count {
			return 0, fmt.Errorf("segment: more events than footer count %d", s.Count)
		}
		used, err := cols.AppendFrame(body[pos:pos+int(fsize)], int(count))
		if err != nil {
			return 0, fmt.Errorf("segment: %s: %w", s.Name, err)
		}
		if used != int(fsize) {
			return 0, fmt.Errorf("segment: frame has %d trailing bytes", int(fsize)-used)
		}
		pos += int(fsize)
	}
	if cols.Len() != s.Count {
		return 0, fmt.Errorf("segment: decoded %d events, footer says %d", cols.Len(), s.Count)
	}
	if !h.verified.Load() {
		// First decode of this handle: scan-verify ordering, thread
		// ranges and the footer range. The bytes are immutable for the
		// reader's lifetime, so repeat loads skip these scans.
		if cols.T[0] != s.MinT || cols.Seq[0] != s.FirstSeq {
			return 0, errors.New("segment: first event disagrees with footer range")
		}
		if cols.T[s.Count-1] != s.MaxT || cols.Seq[s.Count-1] != s.LastSeq {
			return 0, errors.New("segment: last event disagrees with footer range")
		}
		for j := 1; j < s.Count; j++ {
			if !precedes(cols.T[j-1], cols.Seq[j-1], cols.T[j], cols.Seq[j]) {
				return 0, fmt.Errorf("segment: event %d out of order", j)
			}
		}
		nThreads := int32(len(r.skel.Threads))
		for j, th := range cols.Thread {
			if th < 0 || th >= nThreads {
				return 0, fmt.Errorf("segment: %s event %d: thread %d out of range",
					s.Name, s.First+j, th)
			}
		}
		h.verified.Store(true)
	}
	return int64(len(body)), nil
}

// LoadSegment decodes segment i into buf (reusing its capacity) with
// the same verification as LoadColumns. No analysis reads events this
// way; the method stays because the benchmark and the segment tests
// call it.
func (r *Reader) LoadSegment(i int, buf []trace.Event) ([]trace.Event, error) {
	var cols trace.Columns
	if _, err := r.LoadColumns(i, &cols); err != nil {
		return buf[:0], err
	}
	n := cols.Len()
	if cap(buf) < n {
		buf = make([]trace.Event, 0, n)
	}
	buf = buf[:0]
	for j := 0; j < n; j++ {
		buf = append(buf, cols.Event(j))
	}
	return buf, nil
}

// Close releases every mapped segment image. The Reader must not load
// segments afterwards.
func (r *Reader) Close() error {
	var first error
	for i := range r.handles {
		h := &r.handles[i]
		h.once.Do(func() { h.err = errors.New("segment: reader closed") })
		if h.data != nil {
			if err := munmapFile(h.data); err != nil && first == nil {
				first = err
			}
		}
		h.data = nil
	}
	return first
}

// ReadAll loads the entire directory back into one in-memory Trace. Every
// report section reads the Reader itself, so no analysis needs this;
// the method stays because the benchmark and the segment tests call it.
func (r *Reader) ReadAll() (*trace.Trace, error) {
	tr := &trace.Trace{
		Objects: append([]trace.ObjectInfo(nil), r.skel.Objects...),
		Threads: append([]trace.ThreadInfo(nil), r.skel.Threads...),
		Meta:    map[string]string{},
		Events:  make([]trace.Event, 0, r.total),
	}
	for k, v := range r.skel.Meta {
		tr.Meta[k] = v
	}
	for i := range r.segs {
		evs, err := r.LoadSegment(i, nil)
		if err != nil {
			return nil, err
		}
		tr.Events = append(tr.Events, evs...)
	}
	return tr, nil
}
