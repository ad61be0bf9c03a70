package core

import (
	"fmt"
	"math"
	"sort"

	"critlock/internal/pairing"
	"critlock/internal/trace"
)

// SegmentSource is the analyzer's view of a segmented trace
// (implemented by segment.Reader, and by TraceSegments for in-memory
// traces): the registration skeleton plus random access to whole
// decoded segments. Segments partition the canonically ordered event
// sequence into contiguous runs. Every consumer — the passes, the hazard
// fold, slack, the timelines and the predictor — reads events through
// LoadColumns, so any section works on any source.
type SegmentSource interface {
	// Skeleton returns threads, objects and metadata. Its event slice
	// is not read, and sources leave it nil.
	Skeleton() *trace.Trace
	// NumEvents is the total event count.
	NumEvents() int
	// NumSegments is the number of segments.
	NumSegments() int
	// SegmentBounds returns the global index of segment i's first
	// event and its event count.
	SegmentBounds(i int) (first, count int)
	// LoadColumns decodes segment i into cols (resetting it, reusing
	// its capacity) and reports the encoded body bytes consumed (0 if
	// unknown). Distinct segments must be loadable from distinct
	// goroutines concurrently.
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
// Passes 1 and 3 split the segments into cfg.ParallelSegments
// contiguous ranges (stream_par.go). The head range resolves
// everything inline; ranges after it relay what depends on earlier
// ranges to a merge that replays it in order. One range is the plain
// forward scan, and the result is bit-identical at any setting.
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
	workers := max(1, min(cfg.ParallelSegments, src.NumSegments()))
	skel := src.Skeleton()
	h := newObsHook(cfg.Observer, n)

	ann, err := newAnnStore(src, n, cfg.TmpDir, cfg.AnnotationBudget)
	if err != nil {
		return nil, err
	}
	defer ann.remove()

	// Column sets pass from pass 1's head range to the walk's first
	// window and from the walk's largest window to pass 3's head range,
	// so each pass reuses the last one's capacity instead of allocating
	// (and zeroing) its own.
	cols := new(trace.Columns)
	start := h.phaseStart("pass1")
	p1, err := pass1(src, skel, ann, workers, h, cols)
	if err != nil {
		return nil, err
	}
	h.phaseDone("pass1", start, int64(n))

	start = h.phaseStart("walk")
	loader := newSegLoader(src, ann, cfg.CacheSegments, cols)
	loader.hook = h
	cp, err := streamWalk(loader, p1, n)
	if err != nil {
		return nil, err
	}
	h.phaseDone("walk", start, -1)

	start = h.phaseStart("pass3")
	an := &Analysis{Trace: skel, Start: p1.firstT, CP: *cp}
	if err := pass3(src, skel, ann, p1, an, cfg, workers, h, loader.spare); err != nil {
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
	arriveEp map[trace.ThreadID]*pairing.Queue[int]
}

// annPatch is a deferred waker resolution applied after the scan.
type annPatch struct {
	idx   int32
	waker int32
}

// pass1Sync is the waker state machine for every synchronization kind
// whose resolution needs global order: thread lifecycle, barriers,
// conds, channels and joins. Pass 1's head range steps it inline; the
// merge then replays the (rare) sync events the later ranges relayed,
// in global order, so it steps every sync event in trace order at any
// range count. Lock release→obtain wakers are NOT handled here — every range
// resolves them locally (see pass1).
type pass1Sync struct {
	skel         *trace.Trace
	p1           *pass1Result
	createIdx    []int32
	pendingStart []int32
	joinBeginT   []trace.Time
	barriers     map[trace.ObjID]*barStream
	conds        map[trace.ObjID]*pairing.Cond[int32]
	chans        map[trace.ObjID]*pairing.Chan[int32]
	patches      []annPatch
}

func newPass1Sync(skel *trace.Trace, p1 *pass1Result) *pass1Sync {
	nThreads := len(skel.Threads)
	m := &pass1Sync{
		skel:         skel,
		p1:           p1,
		createIdx:    make([]int32, nThreads),
		pendingStart: make([]int32, nThreads),
		joinBeginT:   make([]trace.Time, nThreads),
		barriers:     map[trace.ObjID]*barStream{},
		conds:        map[trace.ObjID]*pairing.Cond[int32]{},
		chans:        map[trace.ObjID]*pairing.Chan[int32]{},
	}
	for tid := 0; tid < nThreads; tid++ {
		m.createIdx[tid] = -1
		m.pendingStart[tid] = -1
	}
	return m
}

func (m *pass1Sync) barOf(o trace.ObjID) *barStream {
	bs := m.barriers[o]
	if bs == nil {
		bs = &barStream{
			parties:  m.skel.Object(o).Parties,
			episodes: map[int]*barEpisode{},
			arriveEp: map[trace.ThreadID]*pairing.Queue[int]{},
		}
		m.barriers[o] = bs
	}
	return bs
}

func (m *pass1Sync) condOf(o trace.ObjID) *pairing.Cond[int32] {
	cs := m.conds[o]
	if cs == nil {
		cs = &pairing.Cond[int32]{}
		m.conds[o] = cs
	}
	return cs
}

func (m *pass1Sync) chanOf(o trace.ObjID) *pairing.Chan[int32] {
	cs := m.chans[o]
	if cs == nil {
		cs = pairing.NewChan[int32](m.skel.Object(o).Parties)
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
			q = &pairing.Queue[int]{}
			bs.arriveEp[thread] = q
		}
		q.Push(ep)
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
		if q := bs.arriveEp[thread]; q != nil && q.Len() > 0 {
			ep = q.Pop()
			epi = bs.episodes[ep]
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

	// Cond and channel wakers pair by the FIFO rules of
	// internal/pairing, with the waker's event index as payload.
	case trace.EvCondWaitBegin:
		m.condOf(obj).Wait(thread)

	case trace.EvCondSignal:
		m.condOf(obj).Signal(i)

	case trace.EvCondBroadcast:
		m.condOf(obj).Broadcast(i)

	case trace.EvCondWaitEnd:
		rec.flags |= annBlocked
		if w, ok := m.condOf(obj).WaitEnd(thread); ok {
			rec.waker = w
		}

	case trace.EvChanSend:
		cs := m.chanOf(obj)
		if arg&trace.ChanArgBlocked != 0 {
			rec.flags |= annBlocked
			if w, ok := cs.Admitter(); ok {
				rec.waker = w
			}
		}
		cs.Send(i)

	case trace.EvChanRecv:
		cs := m.chanOf(obj)
		var w int32
		var ok bool
		if arg&trace.ChanArgClosed != 0 {
			w, ok = cs.Closed()
		} else {
			w, ok = cs.Recv(i)
		}
		if arg&trace.ChanArgBlocked != 0 {
			rec.flags |= annBlocked
			if ok {
				rec.waker = w
			}
		}

	case trace.EvChanClose:
		m.chanOf(obj).Close(i)

	case trace.EvJoinBegin:
		m.joinBeginT[thread] = t

	case trace.EvJoinEnd:
		target := trace.ThreadID(arg)
		if int(target) >= 0 && int(target) < len(m.p1.exitIdx) && m.p1.exitIdx[target] >= 0 &&
			m.p1.exitT[target] > m.joinBeginT[thread] {
			rec.flags |= annBlocked
			rec.waker = m.p1.exitIdx[target]
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
// within each range.
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

// segLoader serves random event/annotation lookups for the backward
// walk from an LRU cache of decoded segments. The most recent window
// short-circuits: the walk steps through one segment at a time, so
// nearly every lookup hits it without the binary search or LRU scan.
type segLoader struct {
	src    SegmentSource
	ann    *annStore
	firsts []int // global index of each segment's first event
	total  int
	cache  map[int]*segWindow
	lru    []int // segment ids, least recent first
	max    int
	cur    *segWindow     // most recently used window
	hook   *obsHook       // cache-miss load accounting (nil = none)
	spare  *trace.Columns // for the next new window, then pass 3 (nil = none)
}

type segWindow struct {
	first int
	end   int // first + count
	cols  *trace.Columns
	links []byte
	flags []byte
}

// newSegLoader returns a loader whose first window decodes into spare
// (nil = a fresh column set).
func newSegLoader(src SegmentSource, ann *annStore, cacheSegments int, spare *trace.Columns) *segLoader {
	n := src.NumSegments()
	l := &segLoader{
		src:    src,
		ann:    ann,
		firsts: make([]int, n),
		cache:  map[int]*segWindow{},
		max:    cacheSegments,
		spare:  spare,
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
		reuse = &segWindow{cols: l.spare}
		if reuse.cols == nil {
			reuse.cols = new(trace.Columns)
		}
		l.spare = nil
	}
	first, count := l.src.SegmentBounds(seg)
	bytes, err := l.src.LoadColumns(seg, reuse.cols)
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
	// on top of them. The largest column set stays behind as the spare
	// pass 3 decodes into.
	for _, w := range l.cache {
		if l.spare == nil || cap(w.cols.T) > cap(l.spare.T) {
			l.spare = w.cols
		}
	}
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
// timestamp, cond-wait begins, the FIFO of in-flight lock invocations
// (acquire order) and the thread's critical-path clip cursor.
// Everything is O(in-flight), not O(history).
type streamThread struct {
	seen      bool
	prevT     trace.Time
	condBegin map[trace.ObjID]condMark
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
// builds the per-thread clip index from the walked path. The result is
// pass 3's head-range state; later ranges share its clip index.
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
	// sorted by time for clipping.
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
