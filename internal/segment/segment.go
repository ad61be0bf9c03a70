// Package segment implements the spillable on-disk trace layout that
// backs bounded-memory analysis (internal/core AnalyzeStream).
//
// A segmented trace is a directory:
//
//	manifest.clsm      registrations + per-segment index
//	seg-000000.clsg    events [0, k)
//	seg-000001.clsg    events [k, 2k)
//	...
//
// Every segment file holds a contiguous, canonically (T, Seq) ordered
// slice of the trace's events, framed so it can be decoded without any
// other file:
//
//	magic   "CLSG"          4 bytes
//	version uvarint         currently 3
//	frames  repeated:
//	        byte    0xF1
//	        uvarint event count (≥ 1)
//	        uvarint payload byte length
//	        payload — event records in the internal/trace binary
//	                  layout (trace.AppendEvent), with the T/Seq delta
//	                  chain reset at the frame start so each frame
//	                  decodes independently
//	footer  byte 0xF2, uvarint payload length, payload:
//	        uvarint event count
//	        varint  minT, varint maxT
//	        uvarint firstSeq, uvarint lastSeq
//	trailer fixed 20 bytes:
//	        uint32 LE crc32/IEEE of bytes [0, footer offset)
//	        uint32 LE crc32/IEEE of the footer payload
//	        uint64 LE footer offset
//	        magic "GSLC"
//
// Readers locate the footer via the trailer and check its count and
// range against the manifest entry; the two CRCs turn any truncation
// or bit corruption into an error instead of a silently wrong
// analysis. Version-2 footers carried per-thread, per-lock and
// per-channel event counts after the range; the reader still accepts
// version 2 and skips those bytes. Within a file, as across the
// directory, events are in strictly increasing (T, Seq) order.
//
// There is one decoder: Reader verifies a segment file once and
// batch-decodes its frames into columns (LoadColumns). Writer is the
// one encoder, and the Spiller writes and reads its per-thread runs
// through both.
//
// The manifest carries what the trace carries besides events
// (metadata, thread and object registrations) plus the segment list:
//
//	magic   "CLSM"
//	version uvarint         currently 1
//	meta    uvarint count, (string key, string value) sorted by key
//	threads uvarint count, (string name, varint creator)
//	objects uvarint count, (byte kind, string name, uvarint parties)
//	segs    uvarint count, (string filename, uvarint events,
//	        varint minT, varint maxT, uvarint firstSeq, uvarint lastSeq)
//	crc     uint32 LE crc32/IEEE of everything before it
//
// Strings are uvarint length + bytes, as in internal/trace.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"critlock/internal/trace"
)

const (
	segMagic    = "CLSG"
	segEndMagic = "GSLC"
	// segVersion 3 dropped the footer's per-thread, per-lock and
	// per-channel summaries (version 2); both versions read.
	segVersion   = 3
	segVersionV2 = 2

	manifestMagic   = "CLSM"
	manifestVersion = 1

	// ManifestName is the manifest's filename within a segment
	// directory.
	ManifestName = "manifest.clsm"

	frameTag  = 0xF1
	footerTag = 0xF2

	// trailerSize is the fixed byte size of the segment trailer.
	trailerSize = 4 + 4 + 8 + 4

	// maxCount caps decoded collection sizes against corrupt or
	// hostile inputs (mirrors internal/trace's limit).
	maxCount = 1 << 30
	// maxStringLen caps decoded string lengths.
	maxStringLen = 1 << 20
)

// Options tunes segment generation.
type Options struct {
	// SegmentEvents is the number of events per segment file — the
	// streaming analyzer's window unit. 0 means DefaultSegmentEvents.
	SegmentEvents int
	// FrameEvents is the number of events per frame within a segment.
	// 0 means DefaultFrameEvents.
	FrameEvents int
}

const (
	// DefaultSegmentEvents keeps a decoded segment around 2 MiB
	// (32 bytes per Event), small enough that a handful of cached
	// windows stay cheap.
	DefaultSegmentEvents = 1 << 16
	// DefaultFrameEvents bounds the frame assembly buffer.
	DefaultFrameEvents = 1 << 12
)

func (o Options) withDefaults() Options {
	if o.SegmentEvents <= 0 {
		o.SegmentEvents = DefaultSegmentEvents
	}
	if o.FrameEvents <= 0 {
		o.FrameEvents = DefaultFrameEvents
	}
	return o
}

// appendFooter encodes s's footer payload (without tag/length) to
// dst: the event count and the (T, Seq) range.
func appendFooter(dst []byte, s SegmentInfo) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Count))
	dst = binary.AppendVarint(dst, int64(s.MinT))
	dst = binary.AppendVarint(dst, int64(s.MaxT))
	dst = binary.AppendUvarint(dst, s.FirstSeq)
	return binary.AppendUvarint(dst, s.LastSeq)
}

// decodeFooter parses the footer payload of a segment file of the
// given version into the count and range fields of a SegmentInfo. A
// version-2 payload goes on with per-thread, per-lock and per-channel
// summaries, which are skipped: nothing reads them, and the footer CRC
// already covers them.
func decodeFooter(buf []byte, version uint64) (SegmentInfo, error) {
	d := byteDecoder{buf: buf}
	s := SegmentInfo{
		Count:    int(d.count("event")),
		MinT:     trace.Time(d.varint()),
		MaxT:     trace.Time(d.varint()),
		FirstSeq: d.uvarint(),
		LastSeq:  d.uvarint(),
	}
	if d.err != nil {
		return SegmentInfo{}, fmt.Errorf("segment: footer: %w", d.err)
	}
	if version == segVersion && d.pos != len(buf) {
		return SegmentInfo{}, fmt.Errorf("segment: footer has %d trailing bytes", len(buf)-d.pos)
	}
	return s, nil
}

// precedes reports whether (t0, seq0) comes strictly before (t1, seq1).
// Inside a segment directory every event's (T, Seq) pair is unique and
// increasing, as trace.DecodeBinary and trace.Validate require.
func precedes(t0 trace.Time, seq0 uint64, t1 trace.Time, seq1 uint64) bool {
	return t0 < t1 || (t0 == t1 && seq0 < seq1)
}

// byteDecoder reads varint fields off a byte slice, latching the first
// error so decode sequences read linearly.
type byteDecoder struct {
	buf []byte
	pos int
	err error
}

func (d *byteDecoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *byteDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.fail(fmt.Errorf("truncated uvarint at byte %d", d.pos))
		return 0
	}
	d.pos += n
	return v
}

func (d *byteDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.pos:])
	if n <= 0 {
		d.fail(fmt.Errorf("truncated varint at byte %d", d.pos))
		return 0
	}
	d.pos += n
	return v
}

func (d *byteDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.fail(fmt.Errorf("truncated byte at %d", d.pos))
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

// count reads a uvarint bounded by maxCount.
func (d *byteDecoder) count(what string) uint64 {
	v := d.uvarint()
	if d.err == nil && v > maxCount {
		d.fail(fmt.Errorf("%s count %d too large", what, v))
		return 0
	}
	return v
}

func (d *byteDecoder) string(what string) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen {
		d.fail(fmt.Errorf("%s length %d too large", what, n))
		return ""
	}
	if d.pos+int(n) > len(d.buf) {
		d.fail(fmt.Errorf("truncated %s at byte %d", what, d.pos))
		return ""
	}
	s := string(d.buf[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func crcOf(b []byte) uint32 { return crc32.ChecksumIEEE(b) }
