package hazard

import (
	"fmt"
	"sort"

	"critlock/internal/pairing"
	"critlock/internal/trace"
)

// maxInherited caps the inherited-hold list per thread. Real wakeup
// chains carry a handful of locks; the cap only matters for
// adversarial (fuzzed) inputs, where it bounds memory. Oldest entries
// win, deterministically.
const maxInherited = 64

// heldLock is one entry of a thread's own acquisition stack. acq is a
// global monotonically increasing acquisition ID: an inherited hold is
// live exactly while its acq is still on the owner's stack.
type heldLock struct {
	obj    trace.ObjID
	acq    uint64
	t      trace.Time // obtain time
	shared bool
}

// viaKind names the wakeup that carried a hold across threads.
type viaKind uint8

const (
	viaNone viaKind = iota
	viaWakeup
	viaHandoff
	viaSlot
	viaClose
)

// via is a wakeup chain kept as (kind, object) and rendered only when a
// witness or a Held list shows it.
type via struct {
	kind viaKind
	obj  trace.ObjID
}

// inhHold is a lock held by another thread whose critical section
// extended into this one via a wakeup chain.
type inhHold struct {
	obj   trace.ObjID
	owner trace.ThreadID
	acq   uint64
	t     trace.Time // owner's obtain time
	via   via        // wakeup chain that carried the hold across
}

type threadState struct {
	held      []heldLock
	inherited []inhHold
	exited    bool
}

// condMachine is one cond's state: the FIFO waiter pairing of
// internal/pairing with the waker's hold snapshot as payload, plus the
// lost-signal and guard bookkeeping.
type condMachine struct {
	waits pairing.Cond[[]inhHold]
	ever  map[trace.ThreadID]bool
	// cands are signal/broadcast events that looked lost when they
	// happened; any later wait on the cond clears them.
	cands []LostSignal
	// assocs are the distinct associated mutexes seen across wait
	// begins, with one witness site each, in first-seen order.
	assocs     []trace.ObjID
	assocSites []GuardSite
}

// chanOp is the pairing payload of one channel operation: its site and
// the holds it carries into the operation it pairs with.
type chanOp struct {
	t      trace.Time
	thread trace.ThreadID
	snap   []inhHold
}

// guardState tracks lock-set consistency for one chan or barrier: flag
// when two threads operate on it under disjoint *non-empty* (own) lock
// sets. One side holding nothing is the normal hand-off pattern and
// stays silent; two threads each believing a different lock guards the
// object is the Eraser-style inconsistency.
type guardState struct {
	kind        string
	nonEmpty    *GuardSite
	nonEmptySet []trace.ObjID
	conflict    *GuardSite
}

type edgeKey struct{ from, to trace.ObjID }

type edgeAgg struct {
	count, crossCount int
	witness           *Witness
	crossWitness      *Witness
}

type machine struct {
	tr     *trace.Trace
	acqSeq uint64
	// threads is indexed by ThreadID; step rejects out-of-range threads
	// before any state is touched.
	threads []threadState
	edges   map[edgeKey]*edgeAgg
	conds   map[trace.ObjID]*condMachine
	chans   map[trace.ObjID]*pairing.Chan[chanOp]
	guards  map[trace.ObjID]*guardState
	prevT   trace.Time
	n       int
}

func newMachine(tr *trace.Trace) *machine {
	return &machine{
		tr:      tr,
		threads: make([]threadState, len(tr.Threads)),
		edges:   make(map[edgeKey]*edgeAgg),
		conds:   make(map[trace.ObjID]*condMachine),
		chans:   make(map[trace.ObjID]*pairing.Chan[chanOp]),
		guards:  make(map[trace.ObjID]*guardState),
	}
}

func (m *machine) cond(id trace.ObjID) *condMachine {
	c := m.conds[id]
	if c == nil {
		c = &condMachine{ever: make(map[trace.ThreadID]bool)}
		m.conds[id] = c
	}
	return c
}

func (m *machine) chanOf(id trace.ObjID) *pairing.Chan[chanOp] {
	c := m.chans[id]
	if c == nil {
		capacity := 0
		if int(id) >= 0 && int(id) < len(m.tr.Objects) {
			capacity = m.tr.Objects[id].Parties
		}
		c = pairing.NewChan[chanOp](capacity)
		m.chans[id] = c
	}
	return c
}

func (m *machine) objName(id trace.ObjID) string { return m.tr.ObjName(id) }

func (m *machine) viaLabel(v via) string {
	switch v.kind {
	case viaWakeup:
		return "cond " + m.objName(v.obj) + " wakeup"
	case viaHandoff:
		return "chan " + m.objName(v.obj) + " hand-off"
	case viaSlot:
		return "chan " + m.objName(v.obj) + " slot"
	case viaClose:
		return "chan " + m.objName(v.obj) + " close"
	}
	return ""
}

func (m *machine) threadName(id trace.ThreadID) string {
	if int(id) >= 0 && int(id) < len(m.tr.Threads) {
		return m.tr.Threads[id].Name
	}
	return fmt.Sprintf("<t%d>", id)
}

// liveInh reports whether an inherited hold's owner still has the
// acquisition on its own stack: the cross-thread extension ends the
// moment the owner releases.
func (m *machine) liveInh(ih inhHold) bool {
	ts := &m.threads[ih.owner]
	for i := range ts.held {
		if ts.held[i].acq == ih.acq {
			return true
		}
	}
	return false
}

// snapshot captures the holds a waker passes into the thread it wakes:
// its own stack plus any still-live holds it itself inherited
// (transitive waker chains keep their original owner and via).
func (m *machine) snapshot(t trace.ThreadID, v via) []inhHold {
	ts := &m.threads[t]
	if len(ts.held) == 0 && len(ts.inherited) == 0 {
		return nil
	}
	out := make([]inhHold, 0, len(ts.held)+len(ts.inherited))
	for _, h := range ts.held {
		out = append(out, inhHold{obj: h.obj, owner: t, acq: h.acq, t: h.t, via: v})
	}
	for _, ih := range ts.inherited {
		if m.liveInh(ih) {
			out = append(out, ih)
		}
	}
	return out
}

// inheritInto installs a waker snapshot into the woken thread,
// deduplicating by acquisition ID and dropping dead entries.
func (m *machine) inheritInto(t trace.ThreadID, snap []inhHold) {
	if len(snap) == 0 {
		return
	}
	ts := &m.threads[t]
	for _, ih := range snap {
		if ih.owner == t || !m.liveInh(ih) {
			continue
		}
		dup := false
		for i := range ts.inherited {
			if ts.inherited[i].acq == ih.acq {
				dup = true
				break
			}
		}
		if !dup && len(ts.inherited) < maxInherited {
			ts.inherited = append(ts.inherited, ih)
		}
	}
}

// heldNames renders the acquisition stack of a thread for a witness:
// own holds first (in acquisition order), then live inherited holds
// annotated with owner and wakeup chain.
func (m *machine) heldNames(ts *threadState) []string {
	out := make([]string, 0, len(ts.held)+len(ts.inherited))
	for _, h := range ts.held {
		n := m.objName(h.obj)
		if h.shared {
			n += " (shared)"
		}
		out = append(out, n)
	}
	for _, ih := range ts.inherited {
		out = append(out, m.objName(ih.obj)+" (held by "+m.threadName(ih.owner)+", via "+m.viaLabel(ih.via)+")")
	}
	return out
}

// addEdge counts one realization of from→e.Obj. held is the obtain's
// rendered acquisition stack, built on the first edge that needs a
// witness and shared by the obtain's later ones.
func (m *machine) addEdge(from trace.ObjID, e *trace.Event, ts *threadState, held *[]string, cross bool, outer inhHold) {
	k := edgeKey{from, e.Obj}
	agg := m.edges[k]
	if agg == nil {
		agg = &edgeAgg{}
		m.edges[k] = agg
	}
	agg.count++
	if cross {
		agg.crossCount++
	}
	if agg.witness == nil || (cross && agg.crossWitness == nil) {
		if *held == nil {
			*held = m.heldNames(ts)
		}
		w := &Witness{
			Thread:     e.Thread,
			ThreadName: m.threadName(e.Thread),
			OuterT:     outer.t,
			InnerT:     e.T,
			Held:       *held,
		}
		if cross {
			w.CrossThread = true
			w.Owner = outer.owner
			w.OwnerName = m.threadName(outer.owner)
			w.Via = m.viaLabel(outer.via)
		}
		if agg.witness == nil {
			agg.witness = w
		}
		if cross && agg.crossWitness == nil {
			agg.crossWitness = w
		}
	}
}

// guardOp folds one chan/barrier operation into its guard state.
// The lock set is copied out only for the (at most two) witness sites.
func (m *machine) guardOp(obj trace.ObjID, kind, op string, e *trace.Event) {
	ts := &m.threads[e.Thread]
	if len(ts.held) == 0 {
		return
	}
	g := m.guards[obj]
	if g == nil {
		g = &guardState{kind: kind}
		m.guards[obj] = g
	}
	if g.nonEmpty == nil {
		g.nonEmptySet = ownSet(ts.held)
		g.nonEmpty = m.guardSite(op, e, g.nonEmptySet)
		return
	}
	if g.conflict == nil && e.Thread != g.nonEmpty.Thread && disjoint(ts.held, g.nonEmptySet) {
		g.conflict = m.guardSite(op, e, ownSet(ts.held))
	}
}

func (m *machine) guardSite(op string, e *trace.Event, set []trace.ObjID) *GuardSite {
	return &GuardSite{
		Op:         op,
		Thread:     e.Thread,
		ThreadName: m.threadName(e.Thread),
		T:          e.T,
		Held:       objNames(m.tr, set),
	}
}

func ownSet(held []heldLock) []trace.ObjID {
	set := make([]trace.ObjID, len(held))
	for i, h := range held {
		set[i] = h.obj
	}
	return set
}

func disjoint(held []heldLock, set []trace.ObjID) bool {
	for _, h := range held {
		for _, y := range set {
			if h.obj == y {
				return false
			}
		}
	}
	return true
}

func objNames(tr *trace.Trace, ids []trace.ObjID) []string {
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = tr.ObjName(id)
	}
	return out
}

// step folds one event, in canonical (T, Seq) order, into the machine.
func (m *machine) step(e *trace.Event) error {
	if e.Kind < trace.EvThreadStart || e.Kind > trace.EvSelect {
		return fmt.Errorf("hazard: event %d: invalid kind %d", m.n, e.Kind)
	}
	if e.T < m.prevT {
		return fmt.Errorf("hazard: event %d: time %d before predecessor %d (trace not in canonical order)", m.n, e.T, m.prevT)
	}
	if int(e.Thread) < 0 || int(e.Thread) >= len(m.threads) {
		return fmt.Errorf("hazard: event %d: thread %d out of range", m.n, e.Thread)
	}
	m.prevT = e.T
	m.n++

	switch e.Kind {
	case trace.EvLockObtain:
		ts := &m.threads[e.Thread]
		// Dead inherited holds are compacted away first, so a witness's
		// Held stack lists each live hold once and no released one.
		live := ts.inherited[:0]
		for _, ih := range ts.inherited {
			if m.liveInh(ih) {
				live = append(live, ih)
			}
		}
		ts.inherited = live
		var held []string
		// Intra-thread edges from every own hold.
		for _, h := range ts.held {
			if h.obj != e.Obj {
				m.addEdge(h.obj, e, ts, &held, false, inhHold{obj: h.obj, owner: e.Thread, acq: h.acq, t: h.t})
			}
		}
		// Cross-thread edges from live inherited holds.
		for _, ih := range ts.inherited {
			if ih.obj != e.Obj {
				m.addEdge(ih.obj, e, ts, &held, true, ih)
			}
		}
		m.acqSeq++
		ts.held = append(ts.held, heldLock{
			obj:    e.Obj,
			acq:    m.acqSeq,
			t:      e.T,
			shared: e.Arg&trace.LockArgShared != 0,
		})

	case trace.EvLockRelease:
		ts := &m.threads[e.Thread]
		for i := len(ts.held) - 1; i >= 0; i-- {
			if ts.held[i].obj == e.Obj {
				ts.held = append(ts.held[:i], ts.held[i+1:]...)
				break
			}
		}

	case trace.EvCondWaitBegin:
		c := m.cond(e.Obj)
		// A waiter exists now, so no earlier signal was lost after all.
		c.cands = nil
		c.waits.Wait(e.Thread)
		c.ever[e.Thread] = true
		// Guard: the associated mutex travels in Arg. Waiting under two
		// different mutexes loses wakeups (the cond's queue is only
		// atomic with respect to one of them).
		if assoc := trace.ObjID(e.Arg); assoc >= 0 {
			known := false
			for _, a := range c.assocs {
				if a == assoc {
					known = true
					break
				}
			}
			if !known {
				c.assocs = append(c.assocs, assoc)
				c.assocSites = append(c.assocSites, GuardSite{
					Op:         "wait",
					Thread:     e.Thread,
					ThreadName: m.threadName(e.Thread),
					T:          e.T,
					Mutex:      m.objName(assoc),
				})
			}
		}

	case trace.EvCondWaitEnd:
		// A wait that ends unpaired (a spurious wakeup, or fuzz noise)
		// inherits nothing.
		if snap, ok := m.cond(e.Obj).waits.WaitEnd(e.Thread); ok {
			m.inheritInto(e.Thread, snap)
		}

	case trace.EvCondSignal, trace.EvCondBroadcast:
		c := m.cond(e.Obj)
		if c.waits.Waiters() > 0 {
			snap := m.snapshot(e.Thread, via{viaWakeup, e.Obj})
			if e.Kind == trace.EvCondSignal {
				c.waits.Signal(snap)
			} else {
				c.waits.Broadcast(snap)
			}
			break
		}
		// Nobody is waiting. That is lost only if nobody *can* wait
		// again: every thread that ever waited on this cond has exited.
		// (Benign termination broadcasts always have live consumers
		// busy checking their predicate.)
		if len(c.ever) > 0 && m.allExited(c.ever) {
			kind := "signal"
			if e.Kind == trace.EvCondBroadcast {
				kind = "broadcast"
			}
			c.cands = append(c.cands, LostSignal{
				Kind:       kind,
				Object:     m.objName(e.Obj),
				Thread:     e.Thread,
				ThreadName: m.threadName(e.Thread),
				T:          e.T,
				Waiters:    len(c.ever),
				Detail: fmt.Sprintf("no thread is waiting and all %d thread(s) that ever waited have exited — the wakeup can never be consumed",
					len(c.ever)),
			})
		}

	case trace.EvChanSendBegin:
		m.guardOp(e.Obj, "chan", "send", e)

	case trace.EvChanSend:
		c := m.chanOf(e.Obj)
		// A blocked send was admitted by the recv that freed its slot:
		// the receiver's critical section extends into the sender.
		if e.Arg&trace.ChanArgBlocked != 0 {
			if r, ok := c.Admitter(); ok {
				m.inheritInto(e.Thread, r.snap)
			}
		}
		op := chanOp{t: e.T, thread: e.Thread, snap: m.snapshot(e.Thread, via{viaHandoff, e.Obj})}
		if r, owed := c.Send(op); owed {
			// The matching recv already completed at this instant:
			// settle the hand-off now, before the receiver's next event.
			m.inheritInto(r.thread, op.snap)
		}

	case trace.EvChanRecvBegin:
		m.guardOp(e.Obj, "chan", "recv", e)

	case trace.EvChanRecv:
		c := m.chanOf(e.Obj)
		if e.Arg&trace.ChanArgClosed != 0 {
			// Receiving the closed marker is ordered after the close.
			if cl, ok := c.Closed(); ok {
				m.inheritInto(e.Thread, cl.snap)
			}
			break
		}
		// A value recv takes its send's holds — a hand-off dependency,
		// blocked or not — before its own site is recorded for the
		// blocked send it may admit. A recv ahead of its send is owed
		// and settled by the send.
		if s, ok := c.Next(); ok {
			m.inheritInto(e.Thread, s.snap)
		}
		c.Recv(chanOp{t: e.T, thread: e.Thread, snap: m.snapshot(e.Thread, via{viaSlot, e.Obj})})

	case trace.EvChanClose:
		m.guardOp(e.Obj, "chan", "close", e)
		m.chanOf(e.Obj).Close(chanOp{t: e.T, thread: e.Thread, snap: m.snapshot(e.Thread, via{viaClose, e.Obj})})

	case trace.EvBarrierArrive:
		m.guardOp(e.Obj, "barrier", "arrive", e)

	case trace.EvThreadStart:
		m.threads[e.Thread].exited = false

	case trace.EvThreadExit:
		ts := &m.threads[e.Thread]
		ts.exited = true
		ts.held = ts.held[:0]
		ts.inherited = ts.inherited[:0]
	}
	return nil
}

func (m *machine) allExited(set map[trace.ThreadID]bool) bool {
	for t := range set {
		if !m.threads[t].exited {
			return false
		}
	}
	return true
}

// finish assembles the deterministic report: surviving lost-signal
// candidates, end-of-trace undelivered sends, guard issues, the sorted
// edge list, and the SCC cycles. keys are the edges in edgeKeys order.
func (m *machine) finish(keys []edgeKey) *Report {
	r := &Report{Events: m.n}

	// Lost cond signals: candidates that no later wait cleared, plus
	// cond guard inconsistencies.
	for _, id := range sortedKeys(m.conds) {
		c := m.conds[id]
		r.LostSignals = append(r.LostSignals, c.cands...)
		if len(c.assocs) >= 2 {
			r.GuardIssues = append(r.GuardIssues, GuardIssue{
				Object:  m.objName(id),
				ObjKind: "cond",
				Detail: fmt.Sprintf("waited on under %d different mutexes (%s vs %s) — wakeups can be lost between the two guards",
					len(c.assocs), c.assocSites[0].Mutex, c.assocSites[1].Mutex),
				Sites: []GuardSite{c.assocSites[0], c.assocSites[1]},
			})
		}
	}

	// Lost channel values: sends never received by the end of the
	// trace.
	for _, id := range sortedKeys(m.chans) {
		c := m.chans[id]
		n, first := c.Undelivered()
		if n == 0 {
			continue
		}
		name := m.objName(id)
		if cl, closed := c.Closed(); closed {
			r.LostSignals = append(r.LostSignals, LostSignal{
				Kind:        "close",
				Object:      name,
				Thread:      cl.thread,
				ThreadName:  m.threadName(cl.thread),
				T:           cl.t,
				Undelivered: n,
				Detail:      fmt.Sprintf("channel closed with %d buffered value(s) never received", n),
			})
		} else {
			r.LostSignals = append(r.LostSignals, LostSignal{
				Kind:        "send",
				Object:      name,
				Thread:      first.thread,
				ThreadName:  m.threadName(first.thread),
				T:           first.t,
				Undelivered: n,
				Detail:      fmt.Sprintf("%d value(s) sent but no goroutine ever receives them", n),
			})
		}
	}
	sort.SliceStable(r.LostSignals, func(i, j int) bool {
		a, b := r.LostSignals[i], r.LostSignals[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Kind < b.Kind
	})

	// Guard issues for chans/barriers: two threads, disjoint non-empty
	// lock sets.
	for _, id := range sortedKeys(m.guards) {
		g := m.guards[id]
		if g.nonEmpty == nil || g.conflict == nil {
			continue
		}
		r.GuardIssues = append(r.GuardIssues, GuardIssue{
			Object:  m.objName(id),
			ObjKind: g.kind,
			Detail: fmt.Sprintf("operated on by multiple threads under disjoint lock sets (%v vs %v)",
				g.nonEmpty.Held, g.conflict.Held),
			Sites: []GuardSite{*g.nonEmpty, *g.conflict},
		})
	}
	sort.SliceStable(r.GuardIssues, func(i, j int) bool {
		if r.GuardIssues[i].Object != r.GuardIssues[j].Object {
			return r.GuardIssues[i].Object < r.GuardIssues[j].Object
		}
		return r.GuardIssues[i].ObjKind < r.GuardIssues[j].ObjKind
	})

	edgeOf := make(map[edgeKey]Edge, len(keys))
	for _, k := range keys {
		agg := m.edges[k]
		e := Edge{
			From:         m.objName(k.from),
			To:           m.objName(k.to),
			Count:        agg.count,
			CrossCount:   agg.crossCount,
			Witness:      *agg.witness,
			CrossWitness: agg.crossWitness,
		}
		edgeOf[k] = e
		r.Edges = append(r.Edges, e)
	}

	r.Cycles = m.cycles(keys, edgeOf)
	return r
}

// edgeKeys returns the aggregate's edges sorted by (from, to) names,
// with IDs as tiebreak.
func (m *machine) edgeKeys() []edgeKey {
	keys := make([]edgeKey, 0, len(m.edges))
	for k := range m.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		an, bn := m.objName(a.from), m.objName(b.from)
		if an != bn {
			return an < bn
		}
		an, bn = m.objName(a.to), m.objName(b.to)
		if an != bn {
			return an < bn
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	return keys
}

func sortedKeys[V any](m map[trace.ObjID]V) []trace.ObjID {
	ids := make([]trace.ObjID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
