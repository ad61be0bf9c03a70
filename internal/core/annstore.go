package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
)

// Annotations: pass 1's per-event output — each event's same-thread
// predecessor, waker and blocked flag — stored as two per-event planes:
//
//   - links — prev (int32 LE, previous event on the same thread or -1)
//     and waker (int32 LE or -1), 8 bytes per event;
//   - flags — 1 byte per event (bit 0 = blocked).
//
// The backward walk is their only reader in an analysis, so both die
// with it: the store is removed the moment the walk returns, before
// pass 3's output peaks. Slack's backward sweep reads its own store.
const (
	annLinkSize = 8
	annRecSize  = annLinkSize + 1 // both planes, for budget/spill sizing
)

const annBlocked = 1 << 0

type annRec struct {
	prev  int32
	waker int32
	flags byte
}

func putAnnLink(dst []byte, prev, waker int32) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(prev))
	binary.LittleEndian.PutUint32(dst[4:8], uint32(waker))
}

func getAnnLink(src []byte) (prev, waker int32) {
	return int32(binary.LittleEndian.Uint32(src[0:4])),
		int32(binary.LittleEndian.Uint32(src[4:8]))
}

// DefaultAnnotationBudget is the resident-annotation ceiling below
// which pass 1 keeps its per-segment shards in memory: 9 bytes per
// event, so the default covers traces up to ~29M events before
// spilling to a temp file.
const DefaultAnnotationBudget int64 = 256 << 20

// annStore holds pass 1's per-event annotations, sharded by segment.
// When the whole run fits the budget (9 bytes × events) the shards live
// in memory and the walk reads them with zero copies; otherwise
// every shard spills to a temp file (links at idx*8, flags at
// n*8 + idx), restoring PR 2's bounded-memory behavior. The choice is
// all-or-nothing and known up front, so both modes behave identically —
// including the patches that land after deferred wakers resolve.
//
// Concurrency: pass 1 writes (shard, commit, patch) from one goroutine
// and finishes before anything reads; the reader (the walk, or slack's
// sweep) is one goroutine too.
type annStore struct {
	firsts []int // global first event index per segment
	counts []int
	n      int      // total events (spill-file plane offsets)
	links  [][]byte // memory mode: per-segment link records
	flags  [][]byte // memory mode: per-segment flag bytes
	f      *os.File // spill mode
}

// newAnnStore sizes the store for src's n events under budget
// (0 = DefaultAnnotationBudget, negative = always spill).
func newAnnStore(src SegmentSource, n int, tmpDir string, budget int64) (*annStore, error) {
	if budget == 0 {
		budget = DefaultAnnotationBudget
	}
	nSegs := src.NumSegments()
	a := &annStore{firsts: make([]int, nSegs), counts: make([]int, nSegs), n: n}
	for s := 0; s < nSegs; s++ {
		a.firsts[s], a.counts[s] = src.SegmentBounds(s)
	}
	if int64(n)*annRecSize <= budget {
		a.links = make([][]byte, nSegs)
		a.flags = make([][]byte, nSegs)
		return a, nil
	}
	f, err := os.CreateTemp(tmpDir, "cla-ann-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("core: creating annotation file: %w", err)
	}
	a.f = f
	return a, nil
}

// inMemory reports whether shards stay resident.
func (a *annStore) inMemory() bool { return a.f == nil }

// shard returns link and flag buffers for segment s, reusing the
// scratch buffers where the store does not take ownership (spill
// mode). The caller fills every record, then commits.
func (a *annStore) shard(s int, lkScratch, flScratch []byte) (links, flags []byte) {
	count := a.counts[s]
	if a.inMemory() || cap(lkScratch) < count*annLinkSize {
		links = make([]byte, count*annLinkSize)
	} else {
		links = lkScratch[:count*annLinkSize]
	}
	if a.inMemory() || cap(flScratch) < count {
		flags = make([]byte, count)
	} else {
		flags = flScratch[:count]
	}
	return links, flags
}

// commit stores segment s's filled shard, returning how many bytes
// were spilled (0 in memory mode). In memory mode the store takes
// ownership of the buffers.
func (a *annStore) commit(s int, links, flags []byte) (int64, error) {
	if a.inMemory() {
		a.links[s] = links
		a.flags[s] = flags
		return 0, nil
	}
	first := int64(a.firsts[s])
	if _, err := a.f.WriteAt(links, first*annLinkSize); err != nil {
		return 0, fmt.Errorf("core: writing annotations: %w", err)
	}
	if _, err := a.f.WriteAt(flags, int64(a.n)*annLinkSize+first); err != nil {
		return 0, fmt.Errorf("core: writing annotations: %w", err)
	}
	return int64(len(links) + len(flags)), nil
}

// release drops segment s's resident shards once slack's sweep has
// consumed them, shrinking the live heap as it advances (a no-op in
// spill mode, where the deferred remove reclaims the file).
func (a *annStore) release(s int) {
	if a.inMemory() {
		a.links[s] = nil
		a.flags[s] = nil
	}
}

// segOf locates the segment containing global event index idx.
func (a *annStore) segOf(idx int32) int {
	return sort.SearchInts(a.firsts, int(idx)+1) - 1
}

// patch overwrites the waker and flags of record idx (never its prev).
// Only valid after the owning shard was committed.
func (a *annStore) patch(idx int32, waker int32, flags byte) error {
	if a.inMemory() {
		s := a.segOf(idx)
		off := int(idx) - a.firsts[s]
		binary.LittleEndian.PutUint32(a.links[s][off*annLinkSize+4:], uint32(waker))
		a.flags[s][off] = flags
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(waker))
	if _, err := a.f.WriteAt(b[:], int64(idx)*annLinkSize+4); err != nil {
		return fmt.Errorf("core: patching annotation %d: %w", idx, err)
	}
	if _, err := a.f.WriteAt([]byte{flags}, int64(a.n)*annLinkSize+int64(idx)); err != nil {
		return fmt.Errorf("core: patching annotation %d: %w", idx, err)
	}
	return nil
}

// readLinks returns segment s's link records. In memory mode they come
// straight out of the resident shard with no copy; buf is reused
// otherwise.
func (a *annStore) readLinks(s int, buf []byte) ([]byte, error) {
	if a.inMemory() {
		return a.links[s], nil
	}
	buf = sizeBuf(buf, a.counts[s]*annLinkSize)
	if _, err := a.f.ReadAt(buf, int64(a.firsts[s])*annLinkSize); err != nil {
		return nil, fmt.Errorf("core: reading annotations: %w", err)
	}
	return buf, nil
}

// readFlags returns segment s's flag bytes, with the same zero-copy
// memory mode as readLinks.
func (a *annStore) readFlags(s int, buf []byte) ([]byte, error) {
	if a.inMemory() {
		return a.flags[s], nil
	}
	buf = sizeBuf(buf, a.counts[s])
	if _, err := a.f.ReadAt(buf, int64(a.n)*annLinkSize+int64(a.firsts[s])); err != nil {
		return nil, fmt.Errorf("core: reading annotations: %w", err)
	}
	return buf, nil
}

func sizeBuf(buf []byte, need int) []byte {
	if cap(buf) < need {
		return make([]byte, need)
	}
	return buf[:need]
}

// remove releases the spill file, if any.
func (a *annStore) remove() {
	if a.f != nil {
		name := a.f.Name()
		a.f.Close()
		os.Remove(name)
		a.f = nil
	}
	a.links = nil
	a.flags = nil
}
