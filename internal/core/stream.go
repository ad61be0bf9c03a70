package core

import (
	"fmt"
	"math"
	"sort"

	"critlock/internal/trace"
)

// SegmentSource is the analyzer's view of a segmented trace
// (implemented by segment.Reader, and by TraceSource's in-memory
// segments): the registration skeleton plus random access to whole
// decoded segments. Segments partition the canonically ordered event
// sequence into contiguous runs.
type SegmentSource interface {
	// Skeleton returns threads, objects and metadata. Its event slice
	// is not read; segment readers leave it nil.
	Skeleton() *trace.Trace
	// NumEvents is the total event count.
	NumEvents() int
	// NumSegments is the number of segments.
	NumSegments() int
	// SegmentBounds returns the global index of segment i's first
	// event and its event count.
	SegmentBounds(i int) (first, count int)
	// LoadSegment decodes segment i into buf, reusing its capacity.
	LoadSegment(i int, buf []trace.Event) ([]trace.Event, error)
}

// ColumnSource is a SegmentSource that can decode segments straight
// into a columnar layout — the passes' fast path (no
// per-event struct materialization; segment.Reader batch-decodes from
// the mapped file). LoadColumns resets cols and reports the encoded
// body bytes consumed (0 if unknown). Distinct segments must be
// loadable from distinct goroutines concurrently.
//
// Plain SegmentSources are adapted automatically (asColumnSource).
type ColumnSource interface {
	SegmentSource
	LoadColumns(i int, cols *trace.Columns) (int64, error)
}

// DefaultCacheSegments is the default backward-walk window.
const DefaultCacheSegments = 4

// AnalyzeStream runs critical lock analysis over a segmented trace in
// bounded memory. It is the one analysis pipeline: in-memory traces
// run it too, viewed as fixed-size segments (TraceSource).
// Analysis.Trace holds the source's skeleton, and holdsByThread is only
// populated with cfg.Composition.
//
// The passes do not run trace.Validate: whole-trace validation would
// defeat the memory bound, and the passes already enforce the
// invariants the analysis depends on (canonical ordering and checksums
// in the segment reader; thread ranges, lock and channel object ranges
// and acquire/obtain/release pairing in the passes). TraceSource
// validates before it streams.
//
// Three passes, per the paper's structure:
//
//  1. forward over segments — waker resolution (§IV.B) written as a
//     fixed-size annotation record per event to per-segment shards
//     (in memory under cfg.AnnotationBudget, spilled to a temp file
//     over it), plus the incremental per-thread lifecycle state;
//  2. backward — the critical-path walk of Fig. 2 over segments loaded
//     window-by-window in reverse through an LRU cache;
//  3. forward again — TYPE 1/TYPE 2 metric accumulation, streaming
//     invocations per thread in acquire order against the walked path.
//
// With cfg.ParallelSegments > 1, passes 1 and 3 run over disjoint
// segment ranges concurrently and merge deterministically; the result
// is bit-identical at any setting.
func AnalyzeStream(src SegmentSource, cfg Config) (*Analysis, error) {
	n := src.NumEvents()
	if n == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if n > math.MaxInt32-1 {
		return nil, fmt.Errorf("core: trace has %d events, beyond the streaming index range", n)
	}
	if cfg.CacheSegments <= 0 {
		cfg.CacheSegments = DefaultCacheSegments
	}
	workers := cfg.ParallelSegments
	if workers > src.NumSegments() {
		workers = src.NumSegments()
	}
	if workers < 1 {
		workers = 1
	}
	skel := src.Skeleton()
	cs := asColumnSource(src)
	h := newObsHook(cfg.Observer, n)

	ann, err := newAnnStore(src, n, cfg.TmpDir, cfg.AnnotationBudget)
	if err != nil {
		return nil, err
	}
	defer ann.remove()

	start := h.phaseStart("pass1")
	var p1 *pass1Result
	if workers > 1 {
		p1, err = streamPass1Par(cs, skel, ann, workers, h)
	} else {
		p1, err = streamPass1(cs, skel, ann, h)
	}
	if err != nil {
		return nil, err
	}
	h.phaseDone("pass1", start, int64(n))

	start = h.phaseStart("walk")
	loader := newSegLoader(cs, ann, cfg.CacheSegments)
	loader.hook = h
	cp, err := streamWalk(loader, p1, n)
	if err != nil {
		return nil, err
	}
	h.phaseDone("walk", start, -1)

	start = h.phaseStart("pass3")
	an := &Analysis{Trace: skel, CP: *cp}
	if workers > 1 {
		err = streamPass3Par(cs, skel, ann, p1, an, cfg, workers, h)
	} else {
		err = streamPass3(cs, skel, ann, p1, an, cfg, h)
	}
	if err != nil {
		return nil, err
	}
	h.phaseDone("pass3", start, int64(n))
	return an, nil
}

// pass1Result carries the O(threads) lifecycle state pass 1 derives.
type pass1Result struct {
	firstT, lastT trace.Time
	startIdx      []int32
	startT        []trace.Time
	exitIdx       []int32
	exitT         []trace.Time
	exitSeq       []uint64
}

func newPass1Result(nThreads int) *pass1Result {
	p1 := &pass1Result{
		startIdx: make([]int32, nThreads),
		startT:   make([]trace.Time, nThreads),
		exitIdx:  make([]int32, nThreads),
		exitT:    make([]trace.Time, nThreads),
		exitSeq:  make([]uint64, nThreads),
	}
	for tid := 0; tid < nThreads; tid++ {
		p1.startIdx[tid] = -1
		p1.exitIdx[tid] = -1
	}
	return p1
}

// barEpisode tracks one barrier episode until its wakers resolve.
type barEpisode struct {
	lastArrive       int32
	lastArriveThread trace.ThreadID
	arrives          int
	departs          int
	// pending are blocked departs seen before the episode completed
	// (with equal timestamps a depart can sort before the last
	// arrive).
	pending []pendingDepart
}

// pendingDepart is a blocked barrier depart awaiting its episode's
// last arrive.
type pendingDepart struct {
	idx    int32
	thread trace.ThreadID
}

// barStream is the per-barrier streaming state: live episodes plus the
// per-thread FIFO pairing each thread's k-th arrive with its k-th
// depart. Completed, fully departed episodes are pruned, so memory is
// O(open episodes), not O(trace).
type barStream struct {
	parties  int
	arrivals int
	episodes map[int]*barEpisode
	arriveEp map[trace.ThreadID]*intQueue
}

// intQueue is a FIFO of ints with amortized O(1) pops.
type intQueue struct {
	vals []int
	head int
}

func (q *intQueue) push(v int) { q.vals = append(q.vals, v) }

func (q *intQueue) pop() (int, bool) {
	if q.head >= len(q.vals) {
		return 0, false
	}
	v := q.vals[q.head]
	q.head++
	if q.head == len(q.vals) {
		q.vals, q.head = q.vals[:0], 0
	} else if q.head > 64 && q.head*2 >= len(q.vals) {
		q.vals = q.vals[:copy(q.vals, q.vals[q.head:])]
		q.head = 0
	}
	return v, true
}

// condStream is the per-cond state: FIFO of blocked waiters plus
// resolved wakers.
type condStream struct {
	waiting []trace.ThreadID
	wakerOf map[trace.ThreadID]int32
}

// annPatch is a deferred waker resolution applied after the scan.
type annPatch struct {
	idx   int32
	waker int32
}

// chanPairing resolves channel wakers for one channel by FIFO pairing
// of completion events. Both backends stamp a blocked operation's
// completion after the waker's own event (waker first, wakee second at
// the same instant), so every waker is already in the past when the
// blocked completion is scanned and resolution needs no deferred
// patches:
//
//   - value receive #r is delivered by send #r (the value it takes,
//     whether handed off directly or drained from the buffer);
//   - send #s on a capacity-C channel is admitted by receive #(s-C),
//     the receive that freed its buffer slot (for C = 0, the
//     rendezvous partner #s itself);
//   - a receive carrying ChanArgClosed consumed no send: its waker is
//     the close event.
//
// Completed pairings are pruned as the counters advance, so live state
// is O(outstanding operations), never O(trace).
type chanPairing struct {
	capacity int
	// sendIdx[s-sendBase] is the event index of send completion #s;
	// entries below recvs are consumed and pruned.
	sendIdx  []int32
	sendBase int
	sends    int
	// recvIdx[r-recvBase] is the event index of value receive #r;
	// entries below sends-capacity can no longer admit a sender.
	recvIdx   []int32
	recvBase  int
	recvs     int
	lastClose int32
}

func newChanPairing(capacity int) *chanPairing {
	if capacity < 0 {
		capacity = 0
	}
	return &chanPairing{capacity: capacity, lastClose: -1}
}

func (cs *chanPairing) sendAt(s int) int32 {
	if s < cs.sendBase || s >= cs.sends {
		return -1
	}
	return cs.sendIdx[s-cs.sendBase]
}

func (cs *chanPairing) recvAt(r int) int32 {
	if r < cs.recvBase || r >= cs.recvs {
		return -1
	}
	return cs.recvIdx[r-cs.recvBase]
}

// send records send completion #sends at event index i and returns the
// waker for blocked sends (or -1).
func (cs *chanPairing) send(i int32, blocked bool) int32 {
	waker := int32(-1)
	if blocked {
		waker = cs.recvAt(cs.sends - cs.capacity)
	}
	cs.sendIdx = append(cs.sendIdx, i)
	cs.sends++
	// Receives numbered below sends-capacity can no longer be anyone's
	// waker; drop them from the front.
	for cs.recvBase < cs.sends-cs.capacity && len(cs.recvIdx) > 0 {
		cs.recvIdx = cs.recvIdx[1:]
		cs.recvBase++
	}
	return waker
}

// recv records a receive completion at event index i and returns the
// waker for blocked receives (or -1). Closed receives consumed no send
// and advance no counter.
func (cs *chanPairing) recv(i int32, blocked, closed bool) int32 {
	if closed {
		if blocked {
			return cs.lastClose
		}
		return -1
	}
	waker := int32(-1)
	if blocked {
		waker = cs.sendAt(cs.recvs)
	}
	cs.recvIdx = append(cs.recvIdx, i)
	cs.recvs++
	// Sends numbered below recvs are paired; drop them from the front.
	for cs.sendBase < cs.recvs && len(cs.sendIdx) > 0 {
		cs.sendIdx = cs.sendIdx[1:]
		cs.sendBase++
	}
	return waker
}

func (cs *chanPairing) close(i int32) { cs.lastClose = i }

// pass1Sync is the sequential waker state machine for every
// synchronization kind whose resolution needs global order: thread
// lifecycle, barriers, conds, channels and joins. The sequential pass
// feeds it every event inline; the parallel pass replays only the
// (rare) sync events through it at merge time, in global order, so
// both produce identical wakers and patches. Lock release→obtain
// wakers are NOT handled here — they are the per-range case the
// parallel workers resolve locally (see streamPass1Par).
type pass1Sync struct {
	skel         *trace.Trace
	p1           *pass1Result
	createIdx    []int32
	pendingStart []int32
	joinBeginT   []trace.Time
	// exit tracking lives here (not in p1) for the parallel pass: a
	// JoinEnd's waker must consult only exits that precede it, and in
	// the parallel pass p1.exitIdx is filled by workers out of order.
	exitIdx  []int32
	exitT    []trace.Time
	barriers map[trace.ObjID]*barStream
	conds    map[trace.ObjID]*condStream
	chans    map[trace.ObjID]*chanPairing
	patches  []annPatch
}

func newPass1Sync(skel *trace.Trace, p1 *pass1Result) *pass1Sync {
	nThreads := len(skel.Threads)
	m := &pass1Sync{
		skel:         skel,
		p1:           p1,
		createIdx:    make([]int32, nThreads),
		pendingStart: make([]int32, nThreads),
		joinBeginT:   make([]trace.Time, nThreads),
		exitIdx:      make([]int32, nThreads),
		exitT:        make([]trace.Time, nThreads),
		barriers:     map[trace.ObjID]*barStream{},
		conds:        map[trace.ObjID]*condStream{},
		chans:        map[trace.ObjID]*chanPairing{},
	}
	for tid := 0; tid < nThreads; tid++ {
		m.createIdx[tid] = -1
		m.pendingStart[tid] = -1
		m.exitIdx[tid] = -1
	}
	return m
}

func (m *pass1Sync) barOf(o trace.ObjID) *barStream {
	bs := m.barriers[o]
	if bs == nil {
		bs = &barStream{
			parties:  m.skel.Object(o).Parties,
			episodes: map[int]*barEpisode{},
			arriveEp: map[trace.ThreadID]*intQueue{},
		}
		m.barriers[o] = bs
	}
	return bs
}

func (m *pass1Sync) condOf(o trace.ObjID) *condStream {
	cs := m.conds[o]
	if cs == nil {
		cs = &condStream{wakerOf: map[trace.ThreadID]int32{}}
		m.conds[o] = cs
	}
	return cs
}

func (m *pass1Sync) chanOf(o trace.ObjID) *chanPairing {
	cs := m.chans[o]
	if cs == nil {
		cs = newChanPairing(m.skel.Object(o).Parties)
		m.chans[o] = cs
	}
	return cs
}

// step advances the sync machine by one event, mutating rec's waker
// and blocked flag where this event is a resolution site and queueing
// patches where the resolution is deferred.
func (m *pass1Sync) step(i int32, kind trace.EventKind, thread trace.ThreadID,
	obj trace.ObjID, arg int64, t trace.Time, seq uint64, rec *annRec) {
	switch kind {
	case trace.EvThreadStart:
		m.p1.startIdx[thread] = i
		m.p1.startT[thread] = t
		if c := m.createIdx[thread]; c >= 0 {
			rec.flags |= annBlocked
			rec.waker = c
		} else {
			m.pendingStart[thread] = i
		}

	case trace.EvThreadExit:
		m.p1.exitIdx[thread] = i
		m.p1.exitT[thread] = t
		m.p1.exitSeq[thread] = seq
		m.exitIdx[thread] = i
		m.exitT[thread] = t

	case trace.EvThreadCreate:
		child := trace.ThreadID(arg)
		if int(child) >= 0 && int(child) < len(m.createIdx) && m.createIdx[child] == -1 {
			m.createIdx[child] = i
			if ps := m.pendingStart[child]; ps >= 0 {
				m.patches = append(m.patches, annPatch{idx: ps, waker: i})
				m.pendingStart[child] = -1
			}
		}

	case trace.EvBarrierArrive:
		bs := m.barOf(obj)
		ep := 0
		if bs.parties > 0 {
			ep = bs.arrivals / bs.parties
		}
		bs.arrivals++
		epi := bs.episodes[ep]
		if epi == nil {
			epi = &barEpisode{}
			bs.episodes[ep] = epi
		}
		epi.lastArrive = i
		epi.lastArriveThread = thread
		epi.arrives++
		q := bs.arriveEp[thread]
		if q == nil {
			q = &intQueue{}
			bs.arriveEp[thread] = q
		}
		q.push(ep)
		if bs.parties > 0 && epi.arrives == bs.parties {
			// Episode complete: its last arrive is final, so
			// deferred departs resolve now.
			for _, d := range epi.pending {
				if epi.lastArriveThread != d.thread {
					m.patches = append(m.patches, annPatch{idx: d.idx, waker: epi.lastArrive})
				}
			}
			epi.pending = nil
			if epi.departs >= bs.parties {
				delete(bs.episodes, ep)
			}
		}

	case trace.EvBarrierDepart:
		bs := m.barOf(obj)
		var epi *barEpisode
		ep := -1
		if q := bs.arriveEp[thread]; q != nil {
			if v, ok := q.pop(); ok {
				ep = v
				epi = bs.episodes[ep]
			}
		}
		if epi != nil {
			epi.departs++
		}
		if arg == 0 && epi != nil {
			rec.flags |= annBlocked
			if bs.parties > 0 && epi.arrives >= bs.parties {
				if epi.lastArriveThread != thread {
					rec.waker = epi.lastArrive
				}
			} else {
				epi.pending = append(epi.pending, pendingDepart{idx: i, thread: thread})
			}
		}
		if epi != nil && bs.parties > 0 && epi.arrives >= bs.parties &&
			epi.departs >= bs.parties && len(epi.pending) == 0 {
			delete(bs.episodes, ep)
		}

	case trace.EvCondWaitBegin:
		cs := m.condOf(obj)
		cs.waiting = append(cs.waiting, thread)

	case trace.EvCondSignal:
		cs := m.condOf(obj)
		if len(cs.waiting) > 0 {
			cs.wakerOf[cs.waiting[0]] = i
			cs.waiting = cs.waiting[1:]
		}

	case trace.EvCondBroadcast:
		cs := m.condOf(obj)
		for _, th := range cs.waiting {
			cs.wakerOf[th] = i
		}
		cs.waiting = cs.waiting[:0]

	case trace.EvCondWaitEnd:
		cs := m.condOf(obj)
		rec.flags |= annBlocked
		if w, ok := cs.wakerOf[thread]; ok {
			rec.waker = w
			delete(cs.wakerOf, thread)
		} else {
			// Spurious wakeup or unmatched signal: drop from
			// the waiting queue, leave the waker unknown.
			for j, th := range cs.waiting {
				if th == thread {
					cs.waiting = append(cs.waiting[:j], cs.waiting[j+1:]...)
					break
				}
			}
		}

	case trace.EvChanSend:
		blocked := arg&trace.ChanArgBlocked != 0
		w := m.chanOf(obj).send(i, blocked)
		if blocked {
			rec.flags |= annBlocked
			rec.waker = w
		}

	case trace.EvChanRecv:
		blocked := arg&trace.ChanArgBlocked != 0
		w := m.chanOf(obj).recv(i, blocked, arg&trace.ChanArgClosed != 0)
		if blocked {
			rec.flags |= annBlocked
			rec.waker = w
		}

	case trace.EvChanClose:
		m.chanOf(obj).close(i)

	case trace.EvJoinBegin:
		m.joinBeginT[thread] = t

	case trace.EvJoinEnd:
		target := trace.ThreadID(arg)
		if int(target) >= 0 && int(target) < len(m.exitIdx) && m.exitIdx[target] >= 0 &&
			m.exitT[target] > m.joinBeginT[thread] {
			rec.flags |= annBlocked
			rec.waker = m.exitIdx[target]
		}
	}
}

// finish resolves barrier episodes that never completed (truncated
// traces, zero-party barriers): their last arrive so far is the waker.
// Returns all deferred patches.
func (m *pass1Sync) finish() []annPatch {
	for _, bs := range m.barriers {
		for _, epi := range bs.episodes {
			for _, d := range epi.pending {
				if epi.lastArriveThread != d.thread {
					m.patches = append(m.patches, annPatch{idx: d.idx, waker: epi.lastArrive})
				}
			}
		}
	}
	return m.patches
}

// indexesObj reports whether the passes index per-object state by an
// event of this kind's object — lock and channel events — so pass 1
// must range-check it: segment input arrives unvalidated, and the
// decoder accepts any object ID, NoObj included.
func indexesObj(kind trace.EventKind) bool {
	switch kind {
	case trace.EvLockAcquire, trace.EvLockObtain, trace.EvLockRelease,
		trace.EvChanSend, trace.EvChanRecv, trace.EvChanClose:
		return true
	}
	return false
}

// isSyncKind reports whether kind routes through pass1Sync. Lock
// events are excluded: obtain wakers resolve against lastRelease
// per-range in the parallel pass.
func isSyncKind(kind trace.EventKind) bool {
	switch kind {
	case trace.EvThreadStart, trace.EvThreadExit, trace.EvThreadCreate,
		trace.EvBarrierArrive, trace.EvBarrierDepart,
		trace.EvCondWaitBegin, trace.EvCondWaitEnd, trace.EvCondSignal, trace.EvCondBroadcast,
		trace.EvChanSend, trace.EvChanRecv, trace.EvChanClose,
		trace.EvJoinBegin, trace.EvJoinEnd:
		return true
	}
	return false
}

// streamPass1 is the forward waker-resolution pass: one annotation
// record per event written to per-segment shards, deferred
// resolutions applied as patches. Its working set is O(threads +
// objects + open barrier episodes + waiting cond threads + one
// decoded segment) — independent of trace length.
func streamPass1(src ColumnSource, skel *trace.Trace, ann *annStore, h *obsHook) (*pass1Result, error) {
	nThreads := len(skel.Threads)
	p1 := newPass1Result(nThreads)
	sync := newPass1Sync(skel, p1)
	lastOfThread := make([]int32, nThreads)
	for tid := 0; tid < nThreads; tid++ {
		lastOfThread[tid] = -1
	}
	lastRelease := make([]int32, len(skel.Objects))
	for i := range lastRelease {
		lastRelease[i] = -1
	}

	var cols trace.Columns
	var lkScratch, flScratch []byte
	i := int32(0)
	for s := 0; s < src.NumSegments(); s++ {
		bytes, err := src.LoadColumns(s, &cols)
		if err != nil {
			return nil, err
		}
		count := cols.Len()
		lk, fl := ann.shard(s, lkScratch, flScratch)
		cT, cSeq, cTh, cKind, cObj, cArg := cols.T, cols.Seq, cols.Thread, cols.Kind, cols.Obj, cols.Arg
		for k := 0; k < count; k++ {
			th := cTh[k]
			if th < 0 || int(th) >= nThreads {
				return nil, fmt.Errorf("core: event %d references thread %d out of range", i, th)
			}
			kind := trace.EventKind(cKind[k])
			if obj := cObj[k]; uint32(obj) >= uint32(len(lastRelease)) && indexesObj(kind) {
				return nil, fmt.Errorf("core: event %d: %s references object %d out of range", i, kind, obj)
			}
			t := cT[k]
			if i == 0 {
				p1.firstT = t
			}
			p1.lastT = t
			rec := annRec{prev: lastOfThread[th], waker: -1}
			lastOfThread[th] = i

			switch kind {
			case trace.EvLockObtain:
				if cArg[k]&trace.LockArgContended != 0 {
					rec.flags |= annBlocked
					rec.waker = lastRelease[cObj[k]]
				}
			case trace.EvLockRelease:
				lastRelease[cObj[k]] = i
			default:
				if isSyncKind(kind) {
					sync.step(i, kind, trace.ThreadID(th), trace.ObjID(cObj[k]), cArg[k], t, cSeq[k], &rec)
				}
			}

			putAnnLink(lk[k*annLinkSize:], rec.prev, rec.waker)
			fl[k] = rec.flags
			i++
		}
		spilled, err := ann.commit(s, lk, fl)
		if err != nil {
			return nil, err
		}
		if !ann.inMemory() {
			lkScratch, flScratch = lk, fl
		}
		if spilled > 0 {
			h.spilled(spilled)
		}
		h.scanned(count, bytes)
	}

	for _, p := range sync.finish() {
		if err := ann.patch(p.idx, p.waker, annBlocked); err != nil {
			return nil, err
		}
	}
	return p1, nil
}

// segLoader serves random event/annotation lookups for the backward
// walk from an LRU cache of decoded segments. The most recent window
// short-circuits: the walk steps through one segment at a time, so
// nearly every lookup hits it without the binary search or LRU scan.
type segLoader struct {
	src    ColumnSource
	ann    *annStore
	firsts []int // global index of each segment's first event
	total  int
	cache  map[int]*segWindow
	lru    []int // segment ids, least recent first
	max    int
	cur    *segWindow // most recently used window
	hook   *obsHook   // cache-miss load accounting (nil = none)
}

type segWindow struct {
	first int
	end   int // first + count
	cols  trace.Columns
	links []byte
	flags []byte
}

func newSegLoader(src ColumnSource, ann *annStore, cacheSegments int) *segLoader {
	n := src.NumSegments()
	l := &segLoader{
		src:    src,
		ann:    ann,
		firsts: make([]int, n),
		cache:  map[int]*segWindow{},
		max:    cacheSegments,
	}
	for i := 0; i < n; i++ {
		first, count := src.SegmentBounds(i)
		l.firsts[i] = first
		l.total = first + count
	}
	return l
}

// window returns the cached window containing global event index i,
// loading (and evicting) as needed.
func (l *segLoader) window(i int32) (*segWindow, error) {
	if w := l.cur; w != nil && w.first <= int(i) && int(i) < w.end {
		return w, nil
	}
	seg := sort.SearchInts(l.firsts, int(i)+1) - 1
	if w := l.cache[seg]; w != nil {
		// Refresh LRU position.
		for k, s := range l.lru {
			if s == seg {
				copy(l.lru[k:], l.lru[k+1:])
				l.lru[len(l.lru)-1] = seg
				break
			}
		}
		l.cur = w
		return w, nil
	}
	var reuse *segWindow
	if len(l.lru) >= l.max {
		victim := l.lru[0]
		copy(l.lru, l.lru[1:])
		l.lru = l.lru[:len(l.lru)-1]
		reuse = l.cache[victim]
		delete(l.cache, victim)
	} else {
		reuse = &segWindow{}
	}
	first, count := l.src.SegmentBounds(seg)
	bytes, err := l.src.LoadColumns(seg, &reuse.cols)
	if err != nil {
		return nil, err
	}
	links, err := l.ann.readLinks(seg, reuse.links)
	if err != nil {
		return nil, err
	}
	flags, err := l.ann.readFlags(seg, reuse.flags)
	if err != nil {
		return nil, err
	}
	reuse.first, reuse.end, reuse.links, reuse.flags = first, first+count, links, flags
	l.cache[seg] = reuse
	l.lru = append(l.lru, seg)
	l.cur = reuse
	l.hook.scanned(count, bytes)
	return reuse, nil
}

func (l *segLoader) timeAt(i int32) (trace.Time, error) {
	w, err := l.window(i)
	if err != nil {
		return 0, err
	}
	return w.cols.T[int(i)-w.first], nil
}

func (l *segLoader) threadAt(i int32) (trace.ThreadID, error) {
	w, err := l.window(i)
	if err != nil {
		return 0, err
	}
	return trace.ThreadID(w.cols.Thread[int(i)-w.first]), nil
}

// revChunks collects values emitted back-to-front into fixed-size
// chunks, then assembles them into one exact-size forward-ordered
// slice — a single final copy instead of append-doubling over a slice
// whose length is unknown until the walk ends.
type revChunks[T any] struct {
	chunks [][]T
	cur    []T
	n      int
}

func (r *revChunks[T]) push(v T) {
	if len(r.cur) == cap(r.cur) {
		c := 2 * cap(r.cur)
		if c < 64 {
			c = 64
		}
		if c > 1<<13 {
			c = 1 << 13
		}
		if r.cur != nil {
			r.chunks = append(r.chunks, r.cur)
		}
		r.cur = make([]T, 0, c)
	}
	r.cur = append(r.cur, v)
	r.n++
}

// forward returns the pushed values in reverse push order (the walk
// pushes newest-first, so this is forward time order).
func (r *revChunks[T]) forward() []T {
	out := make([]T, r.n)
	k := r.n - 1
	fill := func(ch []T) {
		for _, v := range ch {
			out[k] = v
			k--
		}
	}
	for i, ch := range r.chunks {
		fill(ch)
		r.chunks[i] = nil // shed each chunk as it is copied out
	}
	fill(r.cur)
	r.chunks, r.cur = nil, nil
	return out
}

// streamWalk is the backward critical-path traversal of the paper's
// Fig. 2 over windowed segments:
//
//	seg  = find_the_last_segment();
//	stop = find_the_first_segment();
//	while (seg != stop) {
//	    if (segment_blocked_in_the_beginning(seg))
//	        seg = find_the_segment_released_me(seg);
//	    else
//	        seg = find_the_previous_segment(seg);
//	}
//
// Events stand in for segment boundaries: the "segment" ending at event
// e is the interval [prev(e).T, e.T] on e's thread. If e is an unblock
// event (contended obtain, barrier depart of a non-last arriver, cond
// wait end, blocked join end, blocked channel operation, thread start),
// that interval was idle and the walk jumps to the waker pass 1
// resolved; otherwise the interval is recorded as a critical-path piece
// and the walk steps back on the same thread.
func streamWalk(l *segLoader, p1 *pass1Result, n int) (*CriticalPath, error) {
	// Anchor: the exit event of the last-finishing thread; fall back
	// to the globally last event for truncated traces.
	anchor := int32(-1)
	var anchorT trace.Time
	var anchorSeq uint64
	for tid := range p1.exitIdx {
		ei := p1.exitIdx[tid]
		if ei < 0 {
			continue
		}
		if anchor < 0 || p1.exitT[tid] > anchorT ||
			(p1.exitT[tid] == anchorT && p1.exitSeq[tid] > anchorSeq) {
			anchor, anchorT, anchorSeq = ei, p1.exitT[tid], p1.exitSeq[tid]
		}
	}
	if anchor < 0 {
		anchor = int32(n - 1)
	}

	anchorThread, err := l.threadAt(anchor)
	if err != nil {
		return nil, err
	}
	cp := &CriticalPath{
		LastThread: anchorThread,
		WallTime:   p1.lastT - p1.firstT,
	}
	var pieces revChunks[Piece]
	var jumps revChunks[Jump]

	cur := anchor
	// Each iteration either jumps (always followed by a non-jump step,
	// since waker events are never unblock events) or consumes one
	// per-thread predecessor, so 2·n+2 bounds any terminating walk; the
	// guard turns a cycle in malformed input into an error, not a hang.
	maxSteps := 2*n + 2
	for steps := 0; ; steps++ {
		if steps > maxSteps {
			return nil, fmt.Errorf("core: critical-path walk did not terminate after %d steps", steps)
		}
		cp.Steps = steps
		// Copy the current event's fields out of its window before
		// touching any other index: a later load may evict and reuse
		// the window's backing storage.
		w, err := l.window(cur)
		if err != nil {
			return nil, err
		}
		j := int(cur) - w.first
		kind := trace.EventKind(w.cols.Kind[j])
		t := w.cols.T[j]
		thread := trace.ThreadID(w.cols.Thread[j])
		obj := trace.ObjID(w.cols.Obj[j])
		var rec annRec
		rec.prev, rec.waker = getAnnLink(w.links[j*annLinkSize : j*annLinkSize+annLinkSize])
		rec.flags = w.flags[j]

		if kind == trace.EvThreadStart {
			if rec.waker < 0 {
				break // root thread's start: the program's beginning
			}
			weThread, err := l.threadAt(rec.waker)
			if err != nil {
				return nil, err
			}
			cp.Jumps++
			jumps.push(Jump{
				T: t, From: thread, To: weThread,
				Kind: JumpStart, Obj: trace.NoObj,
			})
			cur = rec.waker
			continue
		}

		prev := rec.prev
		if prev < 0 {
			break // malformed thread without a start event
		}

		if rec.flags&annBlocked != 0 && rec.waker >= 0 {
			// A condition wait that had to re-acquire a contended
			// mutex has two dependencies: the signaller and the
			// previous mutex holder. The binding one is whichever
			// released the thread last; when that is the mutex (its
			// obtain directly precedes the wait-end, at or after the
			// signal), step back so the obtain's own jump routes the
			// path through the releaser without losing time.
			if kind == trace.EvCondWaitEnd {
				pw, err := l.window(prev)
				if err != nil {
					return nil, err
				}
				pj := int(prev) - pw.first
				peKind := trace.EventKind(pw.cols.Kind[pj])
				peT := pw.cols.T[pj]
				var prec annRec
				prec.prev, prec.waker = getAnnLink(pw.links[pj*annLinkSize : pj*annLinkSize+annLinkSize])
				prec.flags = pw.flags[pj]
				weT, err := l.timeAt(rec.waker)
				if err != nil {
					return nil, err
				}
				if peKind == trace.EvLockObtain && prec.flags&annBlocked != 0 && prec.waker >= 0 &&
					peT >= weT {
					cur = prev
					continue
				}
			}
			weThread, err := l.threadAt(rec.waker)
			if err != nil {
				return nil, err
			}
			peT, err := l.timeAt(prev)
			if err != nil {
				return nil, err
			}
			cp.Jumps++
			jumps.push(Jump{
				T: t, From: thread, To: weThread,
				Kind: jumpKindOf(kind), Obj: obj,
				Wait: t - peT,
			})
			cur = rec.waker
			continue
		}

		peT, err := l.timeAt(prev)
		if err != nil {
			return nil, err
		}
		from, to := peT, t
		if to > from {
			kind := PieceExec
			if rec.flags&annBlocked != 0 {
				// Blocked but waker unknown: the wait itself sits on
				// the critical path.
				kind = PieceWait
			}
			pieces.push(Piece{Thread: thread, From: from, To: to, Kind: kind})
		}
		cur = prev
	}

	// Pieces and jumps were generated back-to-front; assemble into
	// forward order. The window cache and the annotation link plane
	// (prev/waker — only the walk reads them) are dead weight from here
	// on — drop both first so the assembly's transient (chunks plus the
	// final slices) replaces them in the live set instead of stacking
	// on top of them.
	l.cache, l.lru, l.cur = nil, nil, nil
	l.ann.releaseLinks()
	cp.Pieces = pieces.forward()
	if jumps.n > 0 {
		cp.JumpLog = jumps.forward()
	}
	for i := range cp.Pieces {
		p := &cp.Pieces[i]
		cp.Length += p.Dur()
		switch p.Kind {
		case PieceExec:
			cp.ExecTime += p.Dur()
		case PieceWait:
			cp.WaitTime += p.Dur()
		}
	}
	return cp, nil
}

// jumpKindOf maps an unblock event to its dependency category.
func jumpKindOf(k trace.EventKind) JumpKind {
	switch k {
	case trace.EvLockObtain:
		return JumpLock
	case trace.EvBarrierDepart:
		return JumpBarrier
	case trace.EvCondWaitEnd:
		return JumpCond
	case trace.EvJoinEnd:
		return JumpJoin
	case trace.EvThreadStart:
		return JumpStart
	case trace.EvChanSend, trace.EvChanRecv:
		return JumpChan
	}
	return 0
}

// invocation is one critical section: acquire/obtain/release event
// indices plus derived timing.
type invocation struct {
	lock       trace.ObjID
	thread     trace.ThreadID
	acquireIdx int32
	obtainIdx  int32
	releaseIdx int32 // -1 if the trace ends mid-hold
	acqT       trace.Time
	obtT       trace.Time
	relT       trace.Time
	contended  bool
	shared     bool
}

func (inv *invocation) wait() trace.Time { return inv.obtT - inv.acqT }
func (inv *invocation) hold() trace.Time { return inv.relT - inv.obtT }

// streamThread is pass 3's per-thread state: the previous event's
// timestamp, matched cond-wait begins, the FIFO of in-flight lock
// invocations (acquire order) and the thread's critical-path clip
// cursor. Everything is O(in-flight), not O(history).
type streamThread struct {
	seen      bool
	prevT     trace.Time
	condBegin map[trace.ObjID]trace.Time
	pend      []invocation
	head      int
	base      int        // absolute queue position of pend[0]
	open      openSet    // lock → absolute queue position
	clips     []interval // clip index: (From, To) of this thread's CP pieces
	cursor    int
}

// openSet maps a held lock to its queue position with map semantics —
// one entry per lock, a later acquire overwriting an earlier one — over
// a linear scan. A thread holds very few locks at once, so the scan
// beats a hash map's assign/delete per critical section.
type openSet struct {
	objs []trace.ObjID
	pos  []int
}

func (o *openSet) set(obj trace.ObjID, p int) {
	for k, oo := range o.objs {
		if oo == obj {
			o.pos[k] = p
			return
		}
	}
	o.objs = append(o.objs, obj)
	o.pos = append(o.pos, p)
}

func (o *openSet) get(obj trace.ObjID) (int, bool) {
	for k, oo := range o.objs {
		if oo == obj {
			return o.pos[k], true
		}
	}
	return 0, false
}

func (o *openSet) del(obj trace.ObjID) {
	for k, oo := range o.objs {
		if oo == obj {
			last := len(o.objs) - 1
			o.objs[k], o.pos[k] = o.objs[last], o.pos[last]
			o.objs, o.pos = o.objs[:last], o.pos[:last]
			return
		}
	}
}

// push appends an in-flight invocation, returning its absolute
// position.
func (st *streamThread) push(inv invocation) int {
	st.pend = append(st.pend, inv)
	return st.base + len(st.pend) - 1
}

// at returns the invocation at absolute position pos.
func (st *streamThread) at(pos int) *invocation { return &st.pend[pos-st.base] }

// compact reclaims delivered queue space once it dominates.
func (st *streamThread) compact() {
	if st.head == len(st.pend) {
		st.base += st.head
		st.pend, st.head = st.pend[:0], 0
	} else if st.head > 64 && st.head*2 >= len(st.pend) {
		st.base += st.head
		st.pend = st.pend[:copy(st.pend, st.pend[st.head:])]
		st.head = 0
	}
}

// initStreamThreads fills the analysis's ThreadStats from pass 1 and
// builds the per-thread clip index from the walked path — shared by
// the sequential and parallel metric passes.
func initStreamThreads(an *Analysis, skel *trace.Trace, p1 *pass1Result) []streamThread {
	nThreads := len(skel.Threads)
	an.Threads = make([]ThreadStats, nThreads)
	for tid := 0; tid < nThreads; tid++ {
		ts := &an.Threads[tid]
		ts.Thread = trace.ThreadID(tid)
		ts.Name = skel.Threads[tid].Name
		if p1.startIdx[tid] >= 0 {
			ts.Start = p1.startT[tid]
		}
		if p1.exitIdx[tid] >= 0 {
			ts.End = p1.exitT[tid]
		} else {
			ts.End = p1.lastT
		}
		ts.Lifetime = ts.End - ts.Start
	}

	// Critical-path pieces per thread, packed as (From, To) pairs and
	// sorted by time for clipping — the same construction and sort the
	// parallel pass uses, so tie orders match exactly.
	threads := make([]streamThread, nThreads)
	counts := make([]int, nThreads)
	for pi := range an.CP.Pieces {
		counts[an.CP.Pieces[pi].Thread]++
	}
	for tid, n := range counts {
		if n > 0 {
			threads[tid].clips = make([]interval, 0, n)
		}
	}
	for pi := range an.CP.Pieces {
		p := &an.CP.Pieces[pi]
		threads[p.Thread].clips = append(threads[p.Thread].clips, interval{p.From, p.To})
		an.Threads[p.Thread].TimeOnCP += p.Dur()
	}
	for tid := range threads {
		sortClipIndex(threads[tid].clips)
	}
	return threads
}

// streamPass3 is the forward metric pass: per-thread blocking-time
// accounting and per-lock accumulation, delivering each thread's
// invocations in acquire order as their critical sections close.
func streamPass3(src ColumnSource, skel *trace.Trace, ann *annStore, p1 *pass1Result, an *Analysis, cfg Config, h *obsHook) error {
	nThreads := len(skel.Threads)
	threads := initStreamThreads(an, skel, p1)

	an.hotByLock = map[trace.ObjID][]interval{}
	if cfg.Composition {
		an.holdsByThread = make([][]interval, nThreads)
	}
	sink := newLockSink(nThreads, len(skel.Objects))

	deliver := func(tid int, inv *invocation) {
		if cfg.Composition {
			an.holdsByThread[tid] = append(an.holdsByThread[tid], interval{inv.obtT, inv.relT})
		}
		st := &threads[tid]
		accumulateInvocation(sink, &an.Threads[tid], inv, skel.ObjName(inv.lock), cfg.Options, st.clips, &st.cursor)
	}

	var cols trace.Columns
	var flagsBuf []byte
	i := int32(0)
	for s := 0; s < src.NumSegments(); s++ {
		bytes, err := src.LoadColumns(s, &cols)
		if err != nil {
			return err
		}
		count := cols.Len()
		flagsBuf, err = ann.readFlags(s, flagsBuf)
		if err != nil {
			return err
		}
		cT, cTh, cKind, cObj, cArg := cols.T, cols.Thread, cols.Kind, cols.Obj, cols.Arg
		for k := 0; k < count; k++ {
			tid := int(cTh[k])
			st := &threads[tid]
			kind := trace.EventKind(cKind[k])
			t := cT[k]
			obj := trace.ObjID(cObj[k])
			arg := cArg[k]

			// Blocking-time accounting skips each thread's first event:
			// there is no preceding interval to account.
			if st.seen {
				ts := &an.Threads[tid]
				switch kind {
				case trace.EvBarrierDepart:
					if arg == 0 {
						ts.BarrierWait += t - st.prevT
					}
				case trace.EvCondWaitBegin:
					if st.condBegin == nil {
						st.condBegin = map[trace.ObjID]trace.Time{}
					}
					st.condBegin[obj] = t
				case trace.EvCondWaitEnd:
					if begin, ok := st.condBegin[obj]; ok {
						ts.CondWait += t - begin
						delete(st.condBegin, obj)
					}
				case trace.EvChanSend:
					cs := sink.chanOf(obj, skel.ObjName(obj))
					cs.Sends++
					if arg&trace.ChanArgBlocked != 0 {
						w := t - st.prevT
						cs.BlockedSends++
						cs.SendWait += w
						if w > cs.MaxWait {
							cs.MaxWait = w
						}
						ts.ChanWait += w
					}
				case trace.EvChanRecv:
					cs := sink.chanOf(obj, skel.ObjName(obj))
					cs.Recvs++
					if arg&trace.ChanArgBlocked != 0 {
						w := t - st.prevT
						cs.BlockedRecvs++
						cs.RecvWait += w
						if w > cs.MaxWait {
							cs.MaxWait = w
						}
						ts.ChanWait += w
					}
				case trace.EvChanClose:
					sink.chanOf(obj, skel.ObjName(obj)).Closes++
				case trace.EvJoinEnd:
					if flagsBuf[k]&annBlocked != 0 {
						ts.JoinWait += t - st.prevT
					}
				}
			} else {
				st.seen = true
			}
			st.prevT = t

			switch kind {
			case trace.EvLockAcquire:
				pos := st.push(invocation{
					lock: obj, thread: trace.ThreadID(tid),
					acquireIdx: i, obtainIdx: -1, releaseIdx: -1,
					acqT: t,
				})
				st.open.set(obj, pos)

			case trace.EvLockObtain:
				pos, ok := st.open.get(obj)
				if !ok {
					return fmt.Errorf("core: event %d: obtain of %q without acquire", i, skel.ObjName(obj))
				}
				inv := st.at(pos)
				inv.obtainIdx = i
				inv.obtT = t
				inv.contended = arg&trace.LockArgContended != 0
				inv.shared = arg&trace.LockArgShared != 0

			case trace.EvLockRelease:
				pos, ok := st.open.get(obj)
				if !ok {
					return fmt.Errorf("core: event %d: release of %q without hold", i, skel.ObjName(obj))
				}
				inv := st.at(pos)
				inv.releaseIdx = i
				inv.relT = t
				st.open.del(obj)
				// Deliver the closed prefix of the queue, in acquire
				// order.
				for st.head < len(st.pend) && st.pend[st.head].releaseIdx >= 0 {
					if st.pend[st.head].obtainIdx >= 0 {
						deliver(tid, &st.pend[st.head])
					}
					st.head++
				}
				st.compact()
			}
			i++
		}
		h.scanned(count, bytes)
		// Pass 3 is the last annotation consumer; shed each segment's
		// shard as soon as it is behind us.
		ann.release(s)
	}

	// End of trace: invocations still open get the trace's end as
	// their release, then deliver the rest of every queue in acquire
	// order.
	for tid := range threads {
		st := &threads[tid]
		for k := st.head; k < len(st.pend); k++ {
			inv := &st.pend[k]
			if inv.obtainIdx < 0 {
				continue // acquire without obtain (truncated); skip
			}
			if inv.releaseIdx < 0 {
				inv.relT = p1.lastT
			}
			deliver(tid, inv)
		}
	}

	finalizeMetrics(an, sink, src.NumEvents())
	return nil
}
