package segment

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"critlock/internal/trace"
)

// FileReader decodes one segment file. The footer is parsed and
// CRC-verified up front; events then stream out frame by frame via
// Next, with the body CRC verified when the last frame is consumed —
// so a fully drained reader guarantees the file was intact.
type FileReader struct {
	ftr       *Footer
	footerOff int64
	crcBody   uint32

	br        *bufio.Reader
	crc       hash.Hash32
	decoded   int
	frame     []byte
	framePos  int
	frameLeft int
	framePrev trace.Event
	prev      trace.Event
	done      bool

	closer io.Closer
}

// NewFileReader parses the trailer and footer of a segment held by r.
func NewFileReader(r io.ReaderAt, size int64) (*FileReader, error) {
	if size < int64(len(segMagic))+1+trailerSize {
		return nil, fmt.Errorf("segment: file %w (%d bytes)", trace.ErrTruncated, size)
	}
	var tr [trailerSize]byte
	if _, err := r.ReadAt(tr[:], size-trailerSize); err != nil {
		return nil, fmt.Errorf("segment: reading trailer: %w", err)
	}
	if string(tr[16:20]) != segEndMagic {
		return nil, fmt.Errorf("segment: bad end magic %q", tr[16:20])
	}
	crcBody := binary.LittleEndian.Uint32(tr[0:4])
	crcFooter := binary.LittleEndian.Uint32(tr[4:8])
	footerOff := int64(binary.LittleEndian.Uint64(tr[8:16]))
	if footerOff < int64(len(segMagic))+1 || footerOff >= size-trailerSize {
		return nil, fmt.Errorf("segment: footer offset %d out of range", footerOff)
	}

	// Footer region: [footerOff, size-trailerSize).
	fbuf := make([]byte, size-trailerSize-footerOff)
	if _, err := r.ReadAt(fbuf, footerOff); err != nil {
		return nil, fmt.Errorf("segment: reading footer: %w", err)
	}
	if fbuf[0] != footerTag {
		return nil, fmt.Errorf("segment: bad footer tag 0x%02x", fbuf[0])
	}
	plen, n := binary.Uvarint(fbuf[1:])
	if n <= 0 || plen > maxCount {
		return nil, errors.New("segment: bad footer length")
	}
	payload := fbuf[1+n:]
	if uint64(len(payload)) != plen {
		return nil, fmt.Errorf("segment: footer length %d does not match region %d", plen, len(payload))
	}
	if crcOf(payload) != crcFooter {
		return nil, fmt.Errorf("segment: footer %w", trace.ErrChecksum)
	}
	ftr, err := decodeFooter(payload)
	if err != nil {
		return nil, err
	}

	body := io.NewSectionReader(r, 0, footerOff)
	fr := &FileReader{
		ftr:       ftr,
		footerOff: footerOff,
		crcBody:   crcBody,
		crc:       crc32.NewIEEE(),
	}
	fr.br = bufio.NewReaderSize(io.TeeReader(body, fr.crc), 1<<16)

	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(fr.br, magic); err != nil || string(magic) != segMagic {
		return nil, fmt.Errorf("segment: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return nil, fmt.Errorf("segment: reading version: %w", err)
	}
	if version != segVersion {
		return nil, fmt.Errorf("segment: unsupported version %d", version)
	}
	return fr, nil
}

// OpenFile opens a segment file from disk.
func OpenFile(path string) (*FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fr, err := NewFileReader(f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	fr.closer = f
	return fr, nil
}

// Footer returns the segment's index.
func (fr *FileReader) Footer() *Footer { return fr.ftr }

// Next returns the next event, or io.EOF after the last one. The
// final Next that returns io.EOF also verifies the event count and
// the body checksum.
func (fr *FileReader) Next() (trace.Event, error) {
	if fr.done {
		return trace.Event{}, io.EOF
	}
	for fr.frameLeft == 0 {
		if err := fr.nextFrame(); err != nil {
			return trace.Event{}, err
		}
		if fr.done {
			return trace.Event{}, io.EOF
		}
	}
	e, n, err := trace.DecodeEvent(fr.frame[fr.framePos:], fr.framePrev)
	if err != nil {
		return trace.Event{}, fmt.Errorf("segment: event %d: %w", fr.decoded, err)
	}
	fr.framePos += n
	fr.framePrev = e
	fr.frameLeft--
	if fr.frameLeft == 0 && fr.framePos != len(fr.frame) {
		return trace.Event{}, fmt.Errorf("segment: frame has %d trailing bytes", len(fr.frame)-fr.framePos)
	}
	if fr.decoded == 0 {
		if e.T != fr.ftr.MinT || e.Seq != fr.ftr.FirstSeq {
			return trace.Event{}, errors.New("segment: first event disagrees with footer range")
		}
	} else if !trace.Less(fr.prev, e) {
		return trace.Event{}, fmt.Errorf("segment: event %d out of order", fr.decoded)
	}
	fr.prev = e
	fr.decoded++
	if fr.decoded > fr.ftr.Count {
		return trace.Event{}, fmt.Errorf("segment: more events than footer count %d", fr.ftr.Count)
	}
	return e, nil
}

// nextFrame reads the next frame header+payload, or detects the clean
// end of the body and verifies count and CRC.
func (fr *FileReader) nextFrame() error {
	tag, err := fr.br.ReadByte()
	if err == io.EOF {
		// End of body: everything must check out.
		if fr.decoded != fr.ftr.Count {
			return fmt.Errorf("segment: decoded %d events, footer says %d", fr.decoded, fr.ftr.Count)
		}
		if fr.decoded > 0 && (fr.prev.T != fr.ftr.MaxT || fr.prev.Seq != fr.ftr.LastSeq) {
			return errors.New("segment: last event disagrees with footer range")
		}
		if fr.crc.Sum32() != fr.crcBody {
			return fmt.Errorf("segment: body %w", trace.ErrChecksum)
		}
		fr.done = true
		return nil
	}
	if err != nil {
		return fmt.Errorf("segment: reading frame tag: %w", err)
	}
	if tag != frameTag {
		return fmt.Errorf("segment: bad frame tag 0x%02x", tag)
	}
	count, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return fmt.Errorf("segment: reading frame count: %w", err)
	}
	size, err := binary.ReadUvarint(fr.br)
	if err != nil {
		return fmt.Errorf("segment: reading frame size: %w", err)
	}
	if count == 0 || count > maxCount {
		return fmt.Errorf("segment: bad frame count %d", count)
	}
	if size > uint64(fr.footerOff) {
		return fmt.Errorf("segment: frame size %d exceeds body", size)
	}
	if cap(fr.frame) < int(size) {
		fr.frame = make([]byte, size)
	}
	fr.frame = fr.frame[:size]
	if _, err := io.ReadFull(fr.br, fr.frame); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("segment: frame payload %w: %v", trace.ErrTruncated, err)
		}
		return fmt.Errorf("segment: reading frame payload: %w", err)
	}
	fr.framePos = 0
	fr.frameLeft = int(count)
	fr.framePrev = trace.Event{}
	return nil
}

// ReadAll appends every remaining event to buf and fully verifies the
// file.
func (fr *FileReader) ReadAll(buf []trace.Event) ([]trace.Event, error) {
	for {
		e, err := fr.Next()
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
		buf = append(buf, e)
	}
}

// Close releases the underlying file, if the reader owns one.
func (fr *FileReader) Close() error {
	if fr.closer != nil {
		return fr.closer.Close()
	}
	return nil
}

// Reader reads a segmented trace directory. It implements the
// analyzer's SegmentSource: the skeleton (registrations, metadata, no
// events) plus random access to whole segments decoded into columns
// (LoadColumns), which every analysis pass and report section reads.
//
// Segment files open lazily on first access and stay open —
// memory-mapped unless ReadOptions.NoMmap or the platform forbids it
// — so repeated passes over the same segment never reopen, reseek or
// re-verify the file. Checksums, the footer-vs-manifest cross-check
// and the magic/version header are verified exactly once per segment.
// Distinct segments may be loaded from distinct goroutines
// concurrently; Close releases every mapping and buffer.
type Reader struct {
	dir     string
	opts    ReadOptions
	skel    *trace.Trace
	segs    []SegmentInfo
	total   int
	handles []segHandle
}

// ReadOptions configures how a Reader accesses segment files.
type ReadOptions struct {
	// NoMmap forces buffered reads of segment bodies. The zero value
	// memory-maps each file where the platform supports it and falls
	// back to reading it into memory where it does not.
	NoMmap bool
}

// segHandle is the lazily initialized per-segment state: the raw file
// image (mapped or read) with its verified frame region.
type segHandle struct {
	once   sync.Once
	data   []byte // whole file image
	mapped bool   // data is an mmap and needs munmapFile
	body   []byte // frame region: data[after magic+version : footerOff]
	err    error

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
	r := &Reader{dir: dir, opts: opts, skel: skel}
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
			if s.MinT < p.MaxT || (s.MinT == p.MaxT && s.FirstSeq <= p.LastSeq) {
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

// handle returns segment i's verified file image, opening and
// checking it on first access. Safe for concurrent use.
func (r *Reader) handle(i int) (*segHandle, error) {
	h := &r.handles[i]
	h.once.Do(func() { h.err = r.openSegment(i, h) })
	if h.err != nil {
		return nil, h.err
	}
	return h, nil
}

// openSegment maps (or reads) segment i's file and verifies, once for
// the reader's lifetime: trailer, footer CRC, body CRC, magic/version
// header and the footer-vs-manifest cross-check.
func (r *Reader) openSegment(i int, h *segHandle) error {
	s := r.segs[i]
	f, err := os.Open(filepath.Join(r.dir, s.Name))
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if size < int64(len(segMagic))+1+trailerSize {
		return fmt.Errorf("segment: file %w (%d bytes)", trace.ErrTruncated, size)
	}
	if size > int64(maxCount) {
		return fmt.Errorf("segment: %s is implausibly large (%d bytes)", s.Name, size)
	}
	if !r.opts.NoMmap {
		if data, merr := mmapFile(f, size); merr == nil {
			h.data, h.mapped = data, true
		}
	}
	if h.data == nil {
		h.data = make([]byte, size)
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), h.data); err != nil {
			h.data = nil
			return fmt.Errorf("segment: reading %s: %w", s.Name, err)
		}
	}
	ftr, body, err := verifyImage(h.data)
	if err != nil {
		r.dropHandle(h)
		return err
	}
	if ftr.Count != s.Count || ftr.MinT != s.MinT || ftr.MaxT != s.MaxT ||
		ftr.FirstSeq != s.FirstSeq || ftr.LastSeq != s.LastSeq {
		r.dropHandle(h)
		return fmt.Errorf("segment: %s footer disagrees with manifest", s.Name)
	}
	h.body = body
	return nil
}

// dropHandle releases a handle whose verification failed.
func (r *Reader) dropHandle(h *segHandle) {
	if h.mapped && h.data != nil {
		munmapFile(h.data)
	}
	h.data, h.body, h.mapped = nil, nil, false
}

// verifyImage checks a whole segment file image — trailer, footer CRC
// and decode, body CRC, magic and version — and returns the decoded
// footer plus the frame region.
func verifyImage(data []byte) (*Footer, []byte, error) {
	size := int64(len(data))
	tr := data[size-trailerSize:]
	if string(tr[16:20]) != segEndMagic {
		return nil, nil, fmt.Errorf("segment: bad end magic %q", tr[16:20])
	}
	crcBody := binary.LittleEndian.Uint32(tr[0:4])
	crcFooter := binary.LittleEndian.Uint32(tr[4:8])
	footerOff := int64(binary.LittleEndian.Uint64(tr[8:16]))
	if footerOff < int64(len(segMagic))+1 || footerOff >= size-trailerSize {
		return nil, nil, fmt.Errorf("segment: footer offset %d out of range", footerOff)
	}
	fbuf := data[footerOff : size-trailerSize]
	if fbuf[0] != footerTag {
		return nil, nil, fmt.Errorf("segment: bad footer tag 0x%02x", fbuf[0])
	}
	plen, n := binary.Uvarint(fbuf[1:])
	if n <= 0 || plen > maxCount {
		return nil, nil, errors.New("segment: bad footer length")
	}
	payload := fbuf[1+n:]
	if uint64(len(payload)) != plen {
		return nil, nil, fmt.Errorf("segment: footer length %d does not match region %d", plen, len(payload))
	}
	if crcOf(payload) != crcFooter {
		return nil, nil, fmt.Errorf("segment: footer %w", trace.ErrChecksum)
	}
	ftr, err := decodeFooter(payload)
	if err != nil {
		return nil, nil, err
	}
	if crcOf(data[:footerOff]) != crcBody {
		return nil, nil, fmt.Errorf("segment: body %w", trace.ErrChecksum)
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, nil, fmt.Errorf("segment: bad magic %q", data[:len(segMagic)])
	}
	version, n := binary.Uvarint(data[len(segMagic):footerOff])
	if n <= 0 {
		return nil, nil, fmt.Errorf("segment: reading version: %w", trace.ErrTruncated)
	}
	if version != segVersion {
		return nil, nil, fmt.Errorf("segment: unsupported version %d", version)
	}
	return ftr, data[len(segMagic)+n : footerOff], nil
}

// LoadColumns batch-decodes segment i into cols (reusing its
// capacity), verifying frame structure, event ordering, the footer
// range and that every event's thread is registered. Checksums were
// already verified when the segment's file image was first opened. It
// returns the number of encoded body bytes decoded (for throughput
// accounting).
func (r *Reader) LoadColumns(i int, cols *trace.Columns) (int64, error) {
	s := r.segs[i]
	h, err := r.handle(i)
	if err != nil {
		return 0, err
	}
	cols.Reset(s.Count)
	body, pos := h.body, 0
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
			// Canonical (T, Seq, Thread) order, matching trace.Less.
			if cols.T[j] < cols.T[j-1] ||
				(cols.T[j] == cols.T[j-1] && (cols.Seq[j] < cols.Seq[j-1] ||
					(cols.Seq[j] == cols.Seq[j-1] && cols.Thread[j] <= cols.Thread[j-1]))) {
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

// Close releases every mapped or cached segment image. The Reader
// must not load segments afterwards.
func (r *Reader) Close() error {
	var first error
	for i := range r.handles {
		h := &r.handles[i]
		h.once.Do(func() { h.err = errors.New("segment: reader closed") })
		if h.mapped && h.data != nil {
			if err := munmapFile(h.data); err != nil && first == nil {
				first = err
			}
		}
		h.data, h.body, h.mapped = nil, nil, false
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
