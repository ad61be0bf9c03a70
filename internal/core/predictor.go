package core

import (
	"sort"

	"critlock/internal/trace"
)

// Predictor estimates lock criticality online — processing events in
// arrival order with O(1) work per event and O(locks + threads) state,
// no backward pass. It is the building block the paper's future work
// calls for (§VII): runtime mechanisms such as accelerated critical
// sections, speculative lock reordering or transactional memory need
// to know which lock is critical *while the program runs*, when the
// full critical-path walk is not yet possible.
//
// Heuristic (inverse-parallelism-weighted holds): at any instant the
// critical path runs through exactly one of the currently-running
// threads, so a running thread is on it with probability ≈ 1/running.
// A lock therefore accrues ∫ dt / running(t) over each of its hold
// intervals — hold time while most other threads are blocked or gone
// counts nearly in full, hold time under high parallelism is
// discounted. This scores both convoyed locks (the convoy suppresses
// `running`) and uncontended locks held by a straggler thread (the
// paper's stackLock[5] case), which plain idleness metrics miss.
//
// Implementation trick: a single global accumulator S(t) = ∫ dt /
// max(1, running) is advanced once per event; a hold's credit is
// S(release) − S(obtain).
type Predictor struct {
	locks   map[trace.ObjID]*predictorLock
	threads map[trace.ThreadID]*predictorThread

	lastT   trace.Time
	started bool
	alive   int
	blocked int
	// s is the global inverse-parallelism integral.
	s float64
}

type predictorLock struct {
	id trace.ObjID
	// sAtObtain snapshots the integral when each thread's current
	// hold began (read-write locks allow concurrent holders).
	sAtObtain map[trace.ThreadID]float64
	// score is the accumulated inverse-parallelism-weighted hold.
	score float64
	// waitSum accumulates plain wait time (the naive baseline).
	waitSum trace.Time
	// acquireT tracks each waiter's request time.
	acquireT map[trace.ThreadID]trace.Time
}

type predictorThread struct {
	alive bool
	// blockedDepth counts nested blocking reasons (a cond wait whose
	// mutex re-acquisition also blocks overlaps two).
	blockedDepth int
}

// NewPredictor returns an empty predictor.
func NewPredictor() *Predictor {
	return &Predictor{
		locks:   map[trace.ObjID]*predictorLock{},
		threads: map[trace.ThreadID]*predictorThread{},
	}
}

func (p *Predictor) lockState(id trace.ObjID) *predictorLock {
	l := p.locks[id]
	if l == nil {
		l = &predictorLock{
			id:        id,
			acquireT:  map[trace.ThreadID]trace.Time{},
			sAtObtain: map[trace.ThreadID]float64{},
		}
		p.locks[id] = l
	}
	return l
}

func (p *Predictor) threadState(id trace.ThreadID) *predictorThread {
	t := p.threads[id]
	if t == nil {
		t = &predictorThread{}
		p.threads[id] = t
	}
	return t
}

// advance integrates 1/running up to t.
func (p *Predictor) advance(t trace.Time) {
	if p.started && t > p.lastT {
		running := p.alive - p.blocked
		if running < 1 {
			running = 1
		}
		p.s += float64(t-p.lastT) / float64(running)
	}
	p.lastT = t
	p.started = true
}

func (p *Predictor) block(tid trace.ThreadID) {
	th := p.threadState(tid)
	th.blockedDepth++
	if th.blockedDepth == 1 {
		p.blocked++
	}
}

func (p *Predictor) unblock(tid trace.ThreadID) {
	th := p.threadState(tid)
	if th.blockedDepth > 0 {
		th.blockedDepth--
		if th.blockedDepth == 0 {
			p.blocked--
		}
	}
}

// Observe consumes one event. Events must arrive in trace order.
func (p *Predictor) Observe(e trace.Event) {
	p.advance(e.T)
	switch e.Kind {
	case trace.EvThreadStart:
		th := p.threadState(e.Thread)
		if !th.alive {
			th.alive = true
			p.alive++
		}
	case trace.EvThreadExit:
		th := p.threadState(e.Thread)
		if th.alive {
			th.alive = false
			p.alive--
		}
		if th.blockedDepth > 0 {
			th.blockedDepth = 0
			p.blocked--
		}

	case trace.EvLockAcquire:
		l := p.lockState(e.Obj)
		l.acquireT[e.Thread] = e.T
		p.block(e.Thread)
	case trace.EvLockObtain:
		l := p.lockState(e.Obj)
		if req, ok := l.acquireT[e.Thread]; ok {
			l.waitSum += e.T - req
			delete(l.acquireT, e.Thread)
		}
		p.unblock(e.Thread)
		l.sAtObtain[e.Thread] = p.s
	case trace.EvLockRelease:
		l := p.lockState(e.Obj)
		if s0, held := l.sAtObtain[e.Thread]; held {
			l.score += p.s - s0
			delete(l.sAtObtain, e.Thread)
		}

	case trace.EvBarrierArrive:
		p.block(e.Thread)
	case trace.EvBarrierDepart:
		p.unblock(e.Thread)
	case trace.EvCondWaitBegin:
		p.block(e.Thread)
	case trace.EvCondWaitEnd:
		p.unblock(e.Thread)
	case trace.EvJoinBegin:
		p.block(e.Thread)
	case trace.EvJoinEnd:
		p.unblock(e.Thread)
	}
}

// ObserveAll feeds every event of src in order (offline evaluation of
// the online heuristic).
func (p *Predictor) ObserveAll(src SegmentSource) error {
	return ForEachEvent(src, p.Observe)
}

// PredictedLock is one lock's online score.
type PredictedLock struct {
	Lock trace.ObjID
	// Score is the inverse-parallelism-weighted hold time (ns on the
	// estimated critical path).
	Score float64
	// WaitSum is the naive total-wait metric, kept for comparison.
	WaitSum trace.Time
}

// Ranking returns locks by descending criticality score.
func (p *Predictor) Ranking() []PredictedLock {
	out := make([]PredictedLock, 0, len(p.locks))
	for _, l := range p.locks {
		out = append(out, PredictedLock{Lock: l.id, Score: l.score, WaitSum: l.waitSum})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Lock < out[j].Lock
	})
	return out
}

// WaitRanking returns locks by descending plain wait time — the
// idleness metric of prior tools, used as the evaluation baseline.
func (p *Predictor) WaitRanking() []PredictedLock {
	out := p.Ranking()
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitSum != out[j].WaitSum {
			return out[i].WaitSum > out[j].WaitSum
		}
		return out[i].Lock < out[j].Lock
	})
	return out
}

// Top returns the highest-scored lock (NoObj when nothing observed).
func (p *Predictor) Top() trace.ObjID {
	r := p.Ranking()
	if len(r) == 0 {
		return trace.NoObj
	}
	return r[0].Lock
}
