package trace

import "errors"

// Sentinel error kinds shared by the trace codecs and the segment
// store, so callers can classify failures with errors.Is instead of
// string-matching messages. Sites wrap them with context via %w:
//
//	errors.Is(err, trace.ErrTruncated) // input cut short
//	errors.Is(err, trace.ErrChecksum)  // CRC mismatch: corruption
//
// The facade re-exports them as critlock.ErrTruncated and
// critlock.ErrChecksum.
var (
	// ErrTruncated marks input that ends before the format says it
	// should: short event records, segment files cut mid-frame,
	// manifests missing their tail, and input to Decode that ends
	// inside the binary magic.
	ErrTruncated = errors.New("truncated")

	// ErrChecksum marks a CRC mismatch: the bytes were all there but
	// do not hash to the recorded value — corruption, not truncation.
	ErrChecksum = errors.New("checksum mismatch")
)
