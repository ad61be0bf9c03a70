package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

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

// walkWindow is how many decoded segments the backward walk keeps
// resident. Tests lower it.
var walkWindow = 4

// AnalyzeStream runs critical lock analysis over a segmented trace in
// bounded memory. It is the one analysis pipeline: in-memory traces
// run it too, viewed as fixed-size segments (TraceSource).
// Analysis.Trace holds the source's skeleton.
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
//  1. forward over segments — waker resolution (§IV.B) written per
//     segment as a record for each blocked event and an entry link for
//     each thread, in memory like the walked path, plus the
//     incremental per-thread lifecycle state and every tally that
//     needs no walked path: per-thread barrier, cond, channel and join
//     waits and the channel counts;
//  2. backward — the critical-path walk of Fig. 2 over segments loaded
//     window-by-window in reverse through an LRU cache, each window
//     deriving its events' same-thread predecessors from its thread
//     column and entry links; the entry links' last reader, it drops
//     them as soon as it is done, and the Analysis keeps the records
//     for Slack;
//  3. forward again — lock pairing: TYPE 1/TYPE 2 lock metrics,
//     streaming invocations per thread in acquire order against the
//     walked path.
//
// Pass 1 and the walk are one range each; pass 3 splits the segments
// into contiguous ranges (stream_par.go), and the result is
// bit-identical at any range count. On a source of 2 or more segments
// and 128K events or more, on 2 or more cores, pass 1 and the walk read
// with the next two segments decoding beside them (readAhead), and
// pass 3 splits into one range per core (pass3Ranges).
func AnalyzeStream(src SegmentSource, cfg Config) (*Analysis, error) {
	return analyzeStream(src, cfg, newObsHook(cfg.Observer, src.NumEvents()))
}

// pass3Ranges is how many ranges pass 3 splits src into: one per P
// when the source has cores to spare (spareCores), and one otherwise.
// It is the analysis's only range count: pass 1 is always one range.
func pass3Ranges(src SegmentSource) int {
	if spareCores(src) {
		return min(runtime.GOMAXPROCS(0), src.NumSegments())
	}
	return 1
}

// analyzeStream is AnalyzeStream reporting to h, which TraceSource
// shares so the validate phase lands in the same progress snapshots.
func analyzeStream(src SegmentSource, cfg Config, h *obsHook) (*Analysis, error) {
	n := src.NumEvents()
	if n == 0 {
		return nil, trace.ErrEmptyTrace
	}
	if n > math.MaxInt32-1 {
		return nil, fmt.Errorf("core: trace has %d events, beyond the streaming index range", n)
	}
	skel := src.Skeleton()
	// Pass 1 and the walk read sweep: src behind a read-ahead when the
	// source has cores to spare.
	sweep, join := sweepSource(src)
	defer join()

	ann := newAnnStore(src)

	// Column sets pass from pass 1 to the walk's first window and from
	// the walk's largest window to pass 3's head range, so each pass
	// reuses the last one's capacity instead of allocating (and
	// zeroing) its own.
	cols := new(trace.Columns)
	start := h.phaseStart("pass1")
	p1, err := pass1(sweep, skel, ann, h, cols)
	if err != nil {
		return nil, err
	}
	h.phaseDone("pass1", time.Since(start), int64(n))

	start = h.phaseStart("walk")
	loader := newSegLoader(sweep, ann, len(skel.Threads), cols)
	loader.hook = h
	cp, err := streamWalk(loader, p1, n)
	if err != nil {
		return nil, err
	}
	h.phaseDone("walk", time.Since(start), -1)

	// Pass 3's ranges load concurrently, and a read-ahead serves one
	// goroutine: join its decodes and read src itself. The head range
	// decodes into the walk's spare column set, later ranges into the
	// read-ahead's.
	cols3 := []*trace.Columns{loader.spare}
	if r, ok := sweep.(*readAhead); ok {
		cols3 = append(cols3, r.columnSets()...)
	}
	start = h.phaseStart("pass3")
	an := &Analysis{Trace: skel, Start: p1.firstT, CP: *cp, ann: ann}
	if err := pass3(src, skel, p1, an, cfg, pass3Ranges(src), h, cols3); err != nil {
		return nil, err
	}
	h.phaseDone("pass3", time.Since(start), int64(n))
	return an, nil
}

// pass1Result carries the O(threads + objects) state pass 1 derives:
// thread lifecycles, and the tallies that need no walked path — each
// thread's barrier, cond, channel and join waits (threads; no other
// field is set) and each channel's counts (chans).
type pass1Result struct {
	firstT, lastT trace.Time
	startIdx      []int32
	startT        []trace.Time
	exitIdx       []int32
	exitT         []trace.Time
	exitSeq       []uint64
	threads       []ThreadStats
	chans         chanTally
}

func newPass1Result(nThreads, nObjs int) *pass1Result {
	p1 := &pass1Result{
		startIdx: make([]int32, nThreads),
		startT:   make([]trace.Time, nThreads),
		exitIdx:  make([]int32, nThreads),
		exitT:    make([]trace.Time, nThreads),
		exitSeq:  make([]uint64, nThreads),
		threads:  make([]ThreadStats, nThreads),
		chans:    make(chanTally, nObjs),
	}
	for tid := 0; tid < nThreads; tid++ {
		p1.startIdx[tid] = -1
		p1.exitIdx[tid] = -1
	}
	return p1
}

// pass1 is the forward waker-resolution pass, one scan in trace order:
// per segment, a record for each blocked event and an entry link for
// each thread in it (annStore), deferred resolutions merged into them
// after the scan, and the path-free tallies taken on the spot
// (pass1Sync.tally). It keeps O(threads + objects + one decoded
// segment), and the sync machine adds O(open barrier episodes + waiting
// cond threads), so the working set is independent of trace length.
// Segments decode into cols.
func pass1(src SegmentSource, skel *trace.Trace, ann *annStore, h *obsHook, cols *trace.Columns) (*pass1Result, error) {
	nThreads, nObjs := len(skel.Threads), len(skel.Objects)
	p1 := newPass1Result(nThreads, nObjs)
	sync := newPass1Sync(skel, p1)
	lastOf, lastRel := filled(nThreads, -1), filled(nObjs, -1)
	// segOf is the last segment each thread had an event in.
	segOf := filled(nThreads, -1)
	prevT := make([]trace.Time, nThreads)
	sawEvents := false
	var recs []annRec
	var entries []annEntry
	for s := 0; s < src.NumSegments(); s++ {
		first, _ := src.SegmentBounds(s)
		bytes, err := src.LoadColumns(s, cols)
		if err != nil {
			return nil, err
		}
		count := cols.Len()
		recs, entries = recs[:0], entries[:0]
		cT, cSeq, cTh, cKind, cObj, cArg := cols.T, cols.Seq, cols.Thread, cols.Kind, cols.Obj, cols.Arg
		for k := 0; k < count; k++ {
			gi := int32(first + k)
			th := cTh[k]
			if th < 0 || int(th) >= nThreads {
				return nil, fmt.Errorf("core: event %d references thread %d out of range", gi, th)
			}
			kind := trace.EventKind(cKind[k])
			obj := cObj[k]
			if uint32(obj) >= uint32(nObjs) && indexesObj(kind) {
				return nil, fmt.Errorf("core: event %d: %s references object %d out of range", gi, kind, obj)
			}
			prev := lastOf[th]
			lastOf[th] = gi
			if segOf[th] != int32(s) {
				segOf[th] = int32(s)
				entries = append(entries, annEntry{thread: th, prev: prev})
			}

			waker, blocked := int32(-1), false
			switch kind {
			case trace.EvLockObtain:
				if cArg[k]&trace.LockArgContended != 0 {
					waker, blocked = lastRel[obj], true
				}
			case trace.EvLockRelease:
				lastRel[obj] = gi
			default:
				if isSyncKind(kind) {
					waker, blocked = sync.step(gi, kind, trace.ThreadID(th), trace.ObjID(obj), cArg[k], cT[k], cSeq[k])
					if prev >= 0 {
						sync.tally(kind, trace.ThreadID(th), trace.ObjID(obj), cArg[k], cT[k], cT[k]-prevT[th], blocked)
					}
				}
			}
			prevT[th] = cT[k]
			if blocked {
				recs = append(recs, annRec{idx: gi, waker: waker})
			}
		}
		if count > 0 {
			if !sawEvents {
				p1.firstT, sawEvents = cT[0], true
			}
			p1.lastT = cT[count-1]
		}
		ann.commit(s, recs, entries)
		h.scanned(count, bytes)
	}
	ann.patch(sync.finish())
	return p1, nil
}

// filled returns n copies of v.
func filled(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
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

// pass1Sync is the waker state machine for every synchronization kind
// whose resolution needs global order: thread lifecycle, barriers,
// conds, channels and joins. Pass 1 steps it inline on every sync
// event, in trace order. Lock release→obtain wakers are NOT handled
// here — pass 1 resolves them against each lock's latest release.
type pass1Sync struct {
	skel         *trace.Trace
	p1           *pass1Result
	createIdx    []int32
	pendingStart []int32
	joinBeginT   []trace.Time
	barriers     map[trace.ObjID]*barStream
	conds        map[trace.ObjID]*pairing.Cond[int32]
	chans        map[trace.ObjID]*pairing.Chan[int32]
	patches      []annRec // deferred resolutions
	// condBegin holds each thread's pending cond-wait begins, for
	// tally.
	condBegin map[threadObj]trace.Time
}

// threadObj keys per-thread, per-object state.
type threadObj struct {
	thread trace.ThreadID
	obj    trace.ObjID
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
		condBegin:    map[threadObj]trace.Time{},
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

// step advances the sync machine by one event, returning its waker (-1
// if unknown) and whether it was blocked where this event is a
// resolution site, and queueing patches where the resolution is
// deferred. Every site that finds a waker marks its event blocked.
func (m *pass1Sync) step(i int32, kind trace.EventKind, thread trace.ThreadID,
	obj trace.ObjID, arg int64, t trace.Time, seq uint64) (waker int32, blocked bool) {
	waker = -1
	switch kind {
	case trace.EvThreadStart:
		m.p1.startIdx[thread] = i
		m.p1.startT[thread] = t
		if c := m.createIdx[thread]; c >= 0 {
			waker, blocked = c, true
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
				m.patches = append(m.patches, annRec{idx: ps, waker: i})
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
					m.patches = append(m.patches, annRec{idx: d.idx, waker: epi.lastArrive})
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
			blocked = true
			if bs.parties > 0 && epi.arrives >= bs.parties {
				if epi.lastArriveThread != thread {
					waker = epi.lastArrive
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
		blocked = true
		if w, ok := m.condOf(obj).WaitEnd(thread); ok {
			waker = w
		}

	case trace.EvChanSend:
		cs := m.chanOf(obj)
		if arg&trace.ChanArgBlocked != 0 {
			blocked = true
			if w, ok := cs.Admitter(); ok {
				waker = w
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
			blocked = true
			if ok {
				waker = w
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
			waker, blocked = m.p1.exitIdx[target], true
		}
	}
	return waker, blocked
}

// tally adds one sync event to the path-free tallies: its thread's
// barrier, cond, channel and join waits and its channel's counts. wait
// is the time since the thread's previous event, and a thread's first
// event is not tallied. A barrier depart or a channel operation is
// blocked by its arg bits, a join end by its annotation (blocked); a
// cond wait counts from its begin, and an end with no begin counts
// nothing.
func (m *pass1Sync) tally(kind trace.EventKind, thread trace.ThreadID, obj trace.ObjID, arg int64, t, wait trace.Time, blocked bool) {
	ts := &m.p1.threads[thread]
	switch kind {
	case trace.EvBarrierDepart:
		if arg == 0 {
			ts.BarrierWait += wait
		}
	case trace.EvCondWaitBegin:
		m.condBegin[threadObj{thread, obj}] = t
	case trace.EvCondWaitEnd:
		key := threadObj{thread, obj}
		if begin, ok := m.condBegin[key]; ok {
			ts.CondWait += t - begin
			delete(m.condBegin, key)
		}
	case trace.EvChanSend, trace.EvChanRecv:
		cs := m.p1.chans.of(obj, m.skel.ObjName(obj))
		send := kind == trace.EvChanSend
		if send {
			cs.Sends++
		} else {
			cs.Recvs++
		}
		if arg&trace.ChanArgBlocked != 0 {
			if send {
				cs.BlockedSends++
				cs.SendWait += wait
			} else {
				cs.BlockedRecvs++
				cs.RecvWait += wait
			}
			cs.MaxWait = max(cs.MaxWait, wait)
			ts.ChanWait += wait
		}
	case trace.EvChanClose:
		m.p1.chans.of(obj, m.skel.ObjName(obj)).Closes++
	case trace.EvJoinEnd:
		if blocked {
			ts.JoinWait += wait
		}
	}
}

// finish resolves barrier episodes that never completed (truncated
// traces, zero-party barriers): their last arrive so far is the waker.
// Returns all deferred patches.
func (m *pass1Sync) finish() []annRec {
	for _, bs := range m.barriers {
		for _, epi := range bs.episodes {
			for _, d := range epi.pending {
				if epi.lastArriveThread != d.thread {
					m.patches = append(m.patches, annRec{idx: d.idx, waker: epi.lastArrive})
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
// events are excluded: obtain wakers resolve against lastRelease.
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
	lastOf []int32        // per thread, -1 between loads
}

// segWindow is one decoded segment with its annotations expanded to
// per-event columns: each event's same-thread predecessor (-1 if none)
// and its waker (-1 if blocked with the waker unknown, notBlocked if
// not blocked).
type segWindow struct {
	first int
	end   int // first + count
	cols  *trace.Columns
	prev  []int32
	waker []int32
}

// notBlocked is the waker column's value for an event with no record.
const notBlocked = -2

// newSegLoader returns a loader of walkWindow segments of a trace of
// nThreads threads whose first window decodes into spare (nil = a
// fresh column set).
func newSegLoader(src SegmentSource, ann *annStore, nThreads int, spare *trace.Columns) *segLoader {
	n := src.NumSegments()
	l := &segLoader{
		src:    src,
		ann:    ann,
		firsts: make([]int, n),
		cache:  map[int]*segWindow{},
		max:    walkWindow,
		spare:  spare,
		lastOf: filled(nThreads, -1),
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
	recs, entries := l.ann.segs[seg].recs, l.ann.segs[seg].entries
	reuse.first, reuse.end = first, first+count
	// Each event's predecessor is the thread's event before it in the
	// segment or, for its first, the entry link; pass 1 wrote one link
	// per thread in the segment, so resetting through them leaves
	// lastOf all -1 again.
	for _, e := range entries {
		l.lastOf[e.thread] = e.prev
	}
	reuse.prev = sized(reuse.prev, count)
	for k, th := range reuse.cols.Thread {
		reuse.prev[k] = l.lastOf[th]
		l.lastOf[th] = int32(first + k)
	}
	for _, e := range entries {
		l.lastOf[e.thread] = -1
	}
	reuse.waker = sized(reuse.waker, count)
	for k := range reuse.waker {
		reuse.waker[k] = notBlocked
	}
	for _, r := range recs {
		reuse.waker[int(r.idx)-first] = r.waker
	}
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

// last returns the value pushed last. It stays in place while later
// values are pushed.
func (r *revChunks[T]) last() *T { return &r.cur[len(r.cur)-1] }

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
	// hi is the latest event of the walk's current visit to a thread
	// not yet inside a piece, and open the piece last pushed on that
	// visit: a piece spans, by index, from its start event up to hi, and
	// the visit's earliest piece reaches down to the event where the
	// walk leaves the thread.
	hi := anchor
	var open *Piece
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
		prev, waker := w.prev[j], w.waker[j]

		if kind == trace.EvThreadStart {
			if open != nil {
				open.first, open = cur, nil
			}
			if waker < 0 {
				break // root thread's start: the program's beginning
			}
			weThread, err := l.threadAt(waker)
			if err != nil {
				return nil, err
			}
			cp.Jumps++
			jumps.push(Jump{
				T: t, From: thread, To: weThread,
				Kind: JumpStart, Obj: trace.NoObj,
			})
			cur, hi = waker, waker
			continue
		}

		if prev < 0 {
			if open != nil {
				open.first, open = cur, nil
			}
			break // malformed thread without a start event
		}

		if waker >= 0 {
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
				peT, peWaker := pw.cols.T[pj], pw.waker[pj]
				weT, err := l.timeAt(waker)
				if err != nil {
					return nil, err
				}
				if peKind == trace.EvLockObtain && peWaker >= 0 && peT >= weT {
					cur = prev
					continue
				}
			}
			weThread, err := l.threadAt(waker)
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
			if open != nil {
				open.first, open = cur, nil
			}
			cur, hi = waker, waker
			continue
		}

		peT, err := l.timeAt(prev)
		if err != nil {
			return nil, err
		}
		from, to := peT, t
		if to > from {
			kind := PieceExec
			if waker != notBlocked {
				// Blocked but waker unknown: the wait itself sits on
				// the critical path.
				kind = PieceWait
			}
			pieces.push(Piece{Thread: thread, first: prev, From: from, To: to, last: hi, Kind: kind})
			open, hi = pieces.last(), prev
		}
		cur = prev
	}

	// Pieces and jumps were generated back-to-front; assemble into
	// forward order. The window cache and the entry links (the walk is
	// their last reader) are dead weight from here on — drop both first
	// so the assembly's transient (chunks plus the final slices)
	// replaces them in the live set instead of stacking on top of them.
	// The largest column set stays behind as the spare pass 3 decodes
	// into.
	for _, w := range l.cache {
		if l.spare == nil || cap(w.cols.T) > cap(l.spare.T) {
			l.spare = w.cols
		}
	}
	l.cache, l.lru, l.cur = nil, nil, nil
	l.ann.dropEntries()
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

// streamThread is pass 3's per-thread state: the FIFO of in-flight
// lock invocations (acquire order) and the thread's critical-path clip
// cursor. Everything is O(in-flight), not O(history).
type streamThread struct {
	pend   []invocation
	head   int
	base   int     // absolute queue position of pend[0]
	open   openSet // lock → absolute queue position
	clips  []clip  // clip index: this thread's CP pieces
	cursor int
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

// initStreamThreads fills the analysis's ThreadStats from pass 1's
// lifecycles and waits and builds the per-thread clip index from the
// walked path. The result is pass 3's head-range state; later ranges
// share its clip index.
func initStreamThreads(an *Analysis, skel *trace.Trace, p1 *pass1Result) []streamThread {
	nThreads := len(skel.Threads)
	an.Threads = p1.threads
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
			threads[tid].clips = make([]clip, 0, n)
		}
	}
	for pi := range an.CP.Pieces {
		p := &an.CP.Pieces[pi]
		threads[p.Thread].clips = append(threads[p.Thread].clips, clip{p.From, p.To, p.first, p.last})
		an.Threads[p.Thread].TimeOnCP += p.Dur()
	}
	for tid := range threads {
		sortClipIndex(threads[tid].clips)
	}
	return threads
}
