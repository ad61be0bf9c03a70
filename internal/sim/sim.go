// Package sim is a deterministic discrete-event simulator implementing
// the harness runtime API.
//
// It stands in for the paper's POWER7 testbed: threads execute in
// virtual time on a configurable number of hardware contexts, mutexes
// grant FIFO, barriers release on the last arrival, and condition
// variables pair signals to waiters in FIFO order. Every
// synchronization event is emitted to a trace.Collector with
// virtual-nanosecond timestamps, so runs are bit-for-bit reproducible:
// the same workload, parameters and seed always produce the same trace
// and therefore the same analysis — which is what makes the what-if
// validation experiments (re-run with an optimized lock, compare
// completion times) meaningful.
//
// Scheduling model: a thread occupies a hardware context whenever it is
// not blocked. Compute(d) advances the thread d virtual nanoseconds;
// synchronization operations are instantaneous except for the optional
// Config.LockOverhead/ContentionPenalty, which model lock handoff and
// cache-line migration costs inside the critical section. When more
// threads are runnable than contexts exist, the surplus waits in a FIFO
// ready queue (modelling oversubscription).
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"critlock/internal/harness"
	"critlock/internal/trace"
)

// Config parameterizes a simulation.
type Config struct {
	// Contexts is the number of hardware contexts (the paper's machine
	// has 24). Zero or negative means unlimited.
	Contexts int
	// Seed seeds every thread's PRNG (combined with its thread ID).
	Seed int64
	// LockOverhead is virtual time consumed inside every critical
	// section entry, modelling the cost of the atomic lock operation.
	LockOverhead trace.Time
	// ContentionPenalty is additional virtual time consumed on
	// contended entries, modelling cache-line migration between cores.
	ContentionPenalty trace.Time
	// WakePolicy selects which waiter a released mutex is granted to
	// (FIFO by default; LIFO/random for the fairness ablation).
	WakePolicy WakePolicy
	// Quantum, when positive, enables round-robin time slicing: a
	// thread whose compute exceeds the quantum yields its hardware
	// context to queued ready threads. Zero (the default) models
	// run-to-block scheduling; the quantum only matters when threads
	// outnumber contexts.
	Quantum trace.Time
}

// Sim is a single simulation run. Create with New, execute with Run.
// A Sim must not be reused after Run returns.
type Sim struct {
	cfg Config
	col *trace.Collector

	now      trace.Time
	timerSeq uint64
	timers   timerHeap

	freeCtx   int
	unlimited bool
	readyQ    []*thread
	dispatchQ bool

	threads []*thread
	live    int
	rng     *rand.Rand

	yield   chan struct{}
	err     error
	aborted bool
}

// New returns a simulator with the given configuration.
func New(cfg Config) *Sim {
	s := &Sim{
		cfg:   cfg,
		col:   trace.NewCollector(),
		yield: make(chan struct{}),
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x5DEECE66D)),
	}
	if cfg.Contexts <= 0 {
		s.unlimited = true
	} else {
		s.freeCtx = cfg.Contexts
	}
	s.col.SetMeta("backend", "sim")
	s.col.SetMeta("contexts", fmt.Sprint(cfg.Contexts))
	s.col.SetMeta("seed", fmt.Sprint(cfg.Seed))
	return s
}

// SetMeta implements harness.Runtime.
func (s *Sim) SetMeta(key, value string) { s.col.SetMeta(key, value) }

// Collector exposes the simulator's trace collector so callers can
// configure spilling (trace.Collector.SetSpill) or finish a spilled
// run through segment.Spiller.Finish.
func (s *Sim) Collector() *trace.Collector { return s.col }

// Now returns the current virtual time (valid during Run).
func (s *Sim) Now() trace.Time { return s.now }

// NewMutex implements harness.Runtime.
func (s *Sim) NewMutex(name string) harness.Mutex {
	return &mutex{sim: s, id: s.col.RegisterObject(trace.ObjMutex, name, 0), name: name}
}

// NewBarrier implements harness.Runtime.
func (s *Sim) NewBarrier(name string, parties int) harness.Barrier {
	if parties < 1 {
		panic("sim: barrier needs at least one party")
	}
	return &barrier{sim: s, id: s.col.RegisterObject(trace.ObjBarrier, name, parties), name: name, parties: parties}
}

// NewCond implements harness.Runtime.
func (s *Sim) NewCond(name string) harness.Cond {
	return &cond{sim: s, id: s.col.RegisterObject(trace.ObjCond, name, 0), name: name}
}

// Run executes main as the root thread and drives the simulation until
// every thread finishes, a thread panics, or a deadlock is detected.
// It returns the collected trace and the final virtual time.
func (s *Sim) Run(main func(harness.Proc)) (*trace.Trace, trace.Time, error) {
	root := s.newThread("main", trace.NoThread, main)
	s.makeReady(root)

	for s.live > 0 && s.err == nil {
		if len(s.timers) == 0 {
			s.err = s.deadlockError()
			break
		}
		tm := heap.Pop(&s.timers).(*timer)
		if tm.when < s.now {
			s.err = fmt.Errorf("sim: timer scheduled in the past (%d < %d)", tm.when, s.now)
			break
		}
		s.now = tm.when
		tm.fn()
	}
	s.drain()
	return s.col.Finish(), s.now, s.err
}

// drain unwinds every still-parked thread goroutine after an error so
// failed runs do not leak goroutines. Resumed threads observe
// s.aborted and unwind via an abort panic that finish() swallows.
func (s *Sim) drain() {
	if s.live == 0 {
		return
	}
	s.aborted = true
	for _, th := range s.threads {
		if !th.done {
			s.resume(th)
		}
	}
}

// after schedules fn at now+d in scheduler context.
func (s *Sim) after(d trace.Time, fn func()) {
	s.timerSeq++
	heap.Push(&s.timers, &timer{when: s.now + d, seq: s.timerSeq, fn: fn})
}

// makeReady queues th for a hardware context and ensures a dispatch.
// Safe from both scheduler and thread context.
func (s *Sim) makeReady(th *thread) {
	s.readyQ = append(s.readyQ, th)
	s.scheduleDispatch()
}

func (s *Sim) scheduleDispatch() {
	if s.dispatchQ {
		return
	}
	s.dispatchQ = true
	s.after(0, s.dispatch)
}

// dispatch hands free contexts to ready threads in FIFO order. Runs in
// scheduler context only.
func (s *Sim) dispatch() {
	s.dispatchQ = false
	for len(s.readyQ) > 0 && (s.unlimited || s.freeCtx > 0) {
		th := s.readyQ[0]
		s.readyQ = s.readyQ[1:]
		if !s.unlimited {
			s.freeCtx--
		}
		th.hasContext = true
		s.resume(th)
		if s.err != nil {
			return
		}
	}
}

// resume transfers control to th until it yields. Scheduler context
// only.
func (s *Sim) resume(th *thread) {
	th.resume <- struct{}{}
	<-s.yield
}

// releaseContext frees th's context. Called from thread context just
// before blocking or exiting; the freed context is handed out by a
// zero-delay dispatch so the current thread finishes its step first.
func (s *Sim) releaseContext(th *thread) {
	if !th.hasContext {
		return
	}
	th.hasContext = false
	if !s.unlimited {
		s.freeCtx++
	}
	if len(s.readyQ) > 0 {
		s.scheduleDispatch()
	}
}

// deadlockError reports which threads are blocked on what.
func (s *Sim) deadlockError() error {
	msg := "sim: deadlock: no runnable threads and no pending timers;"
	n := 0
	for _, th := range s.threads {
		if th.done {
			continue
		}
		msg += fmt.Sprintf(" %s(%s)", th.name, th.blockedOn)
		n++
	}
	if n == 0 {
		return fmt.Errorf("sim: scheduler stalled with %d live threads unaccounted for", s.live)
	}
	return fmt.Errorf("%s", msg)
}

type timer struct {
	when trace.Time
	seq  uint64
	fn   func()
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
