package segment

import (
	"os"
	"path/filepath"
	"testing"

	"critlock/internal/trace"
)

// FuzzSegmentFile: arbitrary bytes as a segment file image must never
// panic the reader every segment directory is read through — the
// whole-image check (verifyImage, the manifest cross-check) and the
// frame decode and first-load checks of LoadColumns, run in memory as
// on a mapped file — and any events it accepts must be safe to hand
// to trace.Validate. The manifest entry is the image's own footer, as
// a consistent hostile directory would have it.
func FuzzSegmentFile(f *testing.F) {
	_, _, valid := oneSegment(f, sampleTrace(80))
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(valid[:len(valid)/2])
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 10 {
		mutated[len(mutated)/2] ^= 0xff
	}
	f.Add(mutated)
	v2 := sampleTrace(30).Events
	f.Add(handImage(v2, segVersionV2, append(appendFooter(nil, footerOf(v2)), 0, 0, 0)))

	const threads = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		s, _, _, err := verifyImage(data)
		if err != nil || s.Count <= 0 {
			return // rejection is fine (Open refuses an empty entry); panics are not
		}
		s.Name = "fuzz.clsg"
		cols, err := loadImage(data, s, threads)
		if err != nil {
			return
		}
		// Accepted events must be safely validatable: register every
		// thread the reader allowed and objects up to the largest
		// referenced ID (at most 1024; the validator reports the rest).
		maxObj := trace.ObjID(-1)
		tr := &trace.Trace{Events: make([]trace.Event, cols.Len())}
		for j := range tr.Events {
			tr.Events[j] = cols.Event(j)
			maxObj = max(maxObj, tr.Events[j].Obj)
		}
		for i := trace.ThreadID(0); i < threads; i++ {
			tr.Threads = append(tr.Threads, trace.ThreadInfo{ID: i, Creator: trace.NoThread})
		}
		for i := trace.ObjID(0); i <= min(maxObj, 1023); i++ {
			tr.Objects = append(tr.Objects, trace.ObjectInfo{ID: i, Kind: trace.ObjMutex})
		}
		_ = trace.Validate(tr) // must not panic
	})
}

// FuzzManifest: arbitrary manifest bytes must never panic the
// manifest parse Open runs on the file's bytes (parseManifest, in
// memory).
func FuzzManifest(f *testing.F) {
	tr := sampleTrace(60)
	dir := filepath.Join(f.TempDir(), "segs")
	if err := WriteTrace(dir, tr, Options{SegmentEvents: 16}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	f.Add(valid[:len(valid)/2])

	empty := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := parseManifest(empty, data)
		if err != nil {
			return
		}
		// A manifest that parses references segment files that do not
		// exist here; loading must error cleanly, not panic.
		var buf []trace.Event
		for i := 0; i < r.NumSegments(); i++ {
			if buf, err = r.LoadSegment(i, buf); err != nil {
				return
			}
		}
	})
}
