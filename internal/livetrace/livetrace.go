// Package livetrace is the real-execution backend of the harness API:
// threads are goroutines, mutexes wrap sync.Mutex, and timestamps come
// from the monotonic clock.
//
// It corresponds to the paper's Pthreads interposition library: every
// primitive emits the same MAGIC-point events (acquire/obtain/release,
// barrier arrive/depart, cond wait/signal, create/join/exit) to a
// trace.Collector, and contention is detected with a try-lock first,
// exactly the strategy of the paper's Fig. 4 ("We firstly try to
// acquire the lock by calling the trylock routine").
//
// One deliberate deviation: the release event is stamped immediately
// before the real unlock rather than after it (the paper stamps
// after). Stamping first guarantees that a waiter's obtain timestamp
// is never earlier than its waker's release timestamp, which keeps the
// analyzer's waker resolution exact at the cost of a few nanoseconds
// of apparent hold time.
//
// Unlike the simulator, this backend measures wall time on the host
// machine: results are not deterministic and there is no deadlock
// detection. It exists so the analysis can be applied to real Go
// programs; all reproduced experiments run on internal/sim.
package livetrace

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"critlock/internal/harness"
	"critlock/internal/trace"
)

// Config parameterizes the live runtime.
type Config struct {
	// Seed seeds per-thread PRNGs.
	Seed int64
	// SpinThreshold: Compute durations up to this limit busy-spin (high
	// timestamp fidelity); longer ones sleep (no CPU burn). Default 1ms.
	SpinThreshold time.Duration
}

// Runtime is the live harness backend. Create with New; Run (or the
// Begin/End pair) may be called once.
type Runtime struct {
	cfg   Config
	col   *trace.Collector
	epoch time.Time

	mu      sync.Mutex
	wg      sync.WaitGroup
	ran     bool
	root    *proc
	procs   []*proc
	adopted []*proc
	errs    []error
}

var _ harness.Runtime = (*Runtime)(nil)

// New returns a live runtime.
func New(cfg Config) *Runtime {
	if cfg.SpinThreshold <= 0 {
		cfg.SpinThreshold = time.Millisecond
	}
	rt := &Runtime{cfg: cfg, col: trace.NewCollector(), epoch: time.Now()}
	rt.col.SetMeta("backend", "live")
	rt.col.SetMeta("seed", fmt.Sprint(cfg.Seed))
	return rt
}

// SetMeta implements harness.Runtime.
func (rt *Runtime) SetMeta(key, value string) { rt.col.SetMeta(key, value) }

// Collector exposes the runtime's trace collector so callers can
// configure spilling (trace.Collector.SetSpill) or finish a spilled
// run through segment.Spiller.Finish.
func (rt *Runtime) Collector() *trace.Collector { return rt.col }

func (rt *Runtime) now() trace.Time { return trace.Time(time.Since(rt.epoch)) }

// NewMutex implements harness.Runtime.
func (rt *Runtime) NewMutex(name string) harness.Mutex {
	return &liveMutex{rt: rt, id: rt.col.RegisterObject(trace.ObjMutex, name, 0), name: name}
}

// NewBarrier implements harness.Runtime.
func (rt *Runtime) NewBarrier(name string, parties int) harness.Barrier {
	if parties < 1 {
		panic("livetrace: barrier needs at least one party")
	}
	b := &liveBarrier{rt: rt, id: rt.col.RegisterObject(trace.ObjBarrier, name, parties), name: name, parties: parties}
	b.cv = sync.NewCond(&b.mu)
	return b
}

// NewCond implements harness.Runtime.
func (rt *Runtime) NewCond(name string) harness.Cond {
	return &liveCond{rt: rt, id: rt.col.RegisterObject(trace.ObjCond, name, 0), name: name}
}

// Run implements harness.Runtime: main runs on the calling goroutine;
// Run returns after every spawned thread has finished.
func (rt *Runtime) Run(main func(harness.Proc)) (*trace.Trace, trace.Time, error) {
	rt.mu.Lock()
	if rt.ran {
		rt.mu.Unlock()
		return nil, 0, fmt.Errorf("livetrace: Run called twice")
	}
	rt.ran = true
	rt.mu.Unlock()

	root := rt.newProc("main", trace.NoThread)
	root.runBody(main)
	rt.wg.Wait()
	elapsed := rt.now()
	tr := rt.col.Finish()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.errs) > 0 {
		return tr, elapsed, fmt.Errorf("livetrace: %d thread(s) panicked, first: %w", len(rt.errs), rt.errs[0])
	}
	return tr, elapsed, nil
}

// Begin starts a recording rooted at the calling goroutine instead of
// running a supplied body: the instrumented-program entry point
// (critlock/clrt) cannot invert control the way Run does, because the
// target's main is already executing. The returned Proc must be used
// from the calling goroutine only, and the recording is closed with
// End. Begin and Run are mutually exclusive; either may run once.
func (rt *Runtime) Begin(name string) (harness.Proc, error) {
	rt.mu.Lock()
	if rt.ran {
		rt.mu.Unlock()
		return nil, fmt.Errorf("livetrace: recording already started")
	}
	rt.ran = true
	rt.mu.Unlock()
	if name == "" {
		name = "main"
	}
	root := rt.newProc(name, trace.NoThread)
	root.buf.Emit(rt.now(), trace.EvThreadStart, trace.NoObj, int64(root.creator))
	rt.mu.Lock()
	rt.root = root
	rt.mu.Unlock()
	return root, nil
}

// Adopt registers the calling goroutine as a traced thread without a
// spawn edge from Proc.Go. It exists for instrumented programs in
// which a goroutine was created by un-instrumented code (a library
// callback, an http server worker) and then touches an instrumented
// primitive: rather than crash or corrupt the trace, the goroutine is
// adopted as a child of the root thread, creation stamped at adoption
// time. Adopted threads are not waited for by End; their exit events
// are stamped when the recording closes, so they should be quiescent
// by then. Requires Begin.
func (rt *Runtime) Adopt(name string) harness.Proc {
	rt.mu.Lock()
	root := rt.root
	rt.mu.Unlock()
	if root == nil {
		panic("livetrace: Adopt before Begin")
	}
	p := rt.newProc(name, root.id)
	// The creator-side create event makes the adoption visible to the
	// analyzer's waker resolution (thread start ← creator's create).
	// Emitting into the root buffer from here is safe — ThreadBuffer
	// serializes appends — and the shared sequence counter orders the
	// create before the start.
	root.buf.Emit(rt.now(), trace.EvThreadCreate, trace.NoObj, int64(p.id))
	p.buf.Emit(rt.now(), trace.EvThreadStart, trace.NoObj, int64(p.creator))
	rt.mu.Lock()
	rt.adopted = append(rt.adopted, p)
	rt.mu.Unlock()
	return p
}

// End closes a recording opened with Begin: it stamps the root
// thread's exit, waits for every thread spawned through Proc.Go,
// stamps adopted threads' exits, and returns the merged trace with the
// elapsed wall time. Panics recovered in spawned threads are reported
// like Run reports them.
func (rt *Runtime) End(rootp harness.Proc) (*trace.Trace, trace.Time, error) {
	root, ok := rootp.(*proc)
	if !ok || root.rt != rt || rt.root != root {
		panic("livetrace: End with a proc that is not this runtime's root")
	}
	root.emitExit()
	close(root.done)
	rt.wg.Wait()
	rt.mu.Lock()
	adopted := append([]*proc(nil), rt.adopted...)
	rt.mu.Unlock()
	for _, p := range adopted {
		p.emitExit()
		close(p.done)
	}
	elapsed := rt.now()
	tr := rt.col.Finish()

	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.errs) > 0 {
		return tr, elapsed, fmt.Errorf("livetrace: %d thread(s) panicked, first: %w", len(rt.errs), rt.errs[0])
	}
	return tr, elapsed, nil
}

// EndNow snapshots the recording without waiting for spawned threads:
// every thread that has not yet exited gets its exit stamped at the
// current time, and the merged trace so far is returned. It exists for
// instrumented os.Exit paths, where the process is about to die and
// waiting would change its semantics. Threads still running keep
// running; anything they emit after the snapshot is simply not in the
// returned trace, and a thread cut down inside a critical section will
// show up as a validation warning (analyze such traces with validation
// off).
func (rt *Runtime) EndNow() (*trace.Trace, trace.Time) {
	rt.mu.Lock()
	procs := append([]*proc(nil), rt.procs...)
	rt.mu.Unlock()
	for _, p := range procs {
		p.emitExit()
	}
	elapsed := rt.now()
	return rt.col.Finish(), elapsed
}

func (rt *Runtime) recordErr(err error) {
	rt.mu.Lock()
	rt.errs = append(rt.errs, err)
	rt.mu.Unlock()
}

// proc is the per-goroutine execution context.
type proc struct {
	rt      *Runtime
	id      trace.ThreadID
	creator trace.ThreadID
	name    string
	buf     *trace.ThreadBuffer
	rng     *rand.Rand
	done    chan struct{}
	// exited guards the thread-exit event: exactly one of runBody's
	// epilogue, End and EndNow stamps it.
	exited atomic.Bool
}

// emitExit stamps the thread-exit event exactly once.
func (p *proc) emitExit() {
	if p.exited.CompareAndSwap(false, true) {
		p.buf.Emit(p.rt.now(), trace.EvThreadExit, trace.NoObj, 0)
	}
}

var _ harness.Proc = (*proc)(nil)
var _ harness.Thread = (*proc)(nil)

func (rt *Runtime) newProc(name string, creator trace.ThreadID) *proc {
	buf := rt.col.RegisterThread(name, creator)
	p := &proc{
		rt:      rt,
		id:      buf.Thread(),
		creator: creator,
		name:    name,
		buf:     buf,
		rng:     rand.New(rand.NewSource(rt.cfg.Seed*1000003 + int64(buf.Thread()) + 1)),
		done:    make(chan struct{}),
	}
	rt.mu.Lock()
	rt.procs = append(rt.procs, p)
	rt.mu.Unlock()
	return p
}

// runBody wraps the thread body with start/exit events, panic capture
// and join release.
func (p *proc) runBody(fn func(harness.Proc)) {
	rt := p.rt
	p.buf.Emit(rt.now(), trace.EvThreadStart, trace.NoObj, int64(p.creator))
	defer func() {
		if r := recover(); r != nil {
			rt.recordErr(fmt.Errorf("thread %s panicked: %v", p.name, r))
		}
		p.emitExit()
		close(p.done)
	}()
	fn(p)
}

// ID implements harness.Proc and harness.Thread.
func (p *proc) ID() trace.ThreadID { return p.id }

// Rand implements harness.Proc.
func (p *proc) Rand() *rand.Rand { return p.rng }

// Compute implements harness.Proc: busy-spin for short durations,
// sleep for long ones.
func (p *proc) Compute(d trace.Time) {
	if d <= 0 {
		return
	}
	dur := time.Duration(d)
	if dur > p.rt.cfg.SpinThreshold {
		time.Sleep(dur)
		return
	}
	deadline := time.Now().Add(dur)
	for time.Now().Before(deadline) {
	}
}

// Go implements harness.Proc.
func (p *proc) Go(name string, fn func(harness.Proc)) harness.Thread {
	rt := p.rt
	child := rt.newProc(name, p.id)
	p.buf.Emit(rt.now(), trace.EvThreadCreate, trace.NoObj, int64(child.id))
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		child.runBody(fn)
	}()
	return child
}

// Join implements harness.Proc.
func (p *proc) Join(t harness.Thread) {
	target, ok := t.(*proc)
	if !ok || target.rt != p.rt {
		panic("livetrace: Join on a thread from another runtime")
	}
	p.buf.Emit(p.rt.now(), trace.EvJoinBegin, trace.NoObj, int64(target.id))
	<-target.done
	p.buf.Emit(p.rt.now(), trace.EvJoinEnd, trace.NoObj, int64(target.id))
}

// Lock implements harness.Proc with try-lock contention detection.
func (p *proc) Lock(hm harness.Mutex) {
	m, ok := hm.(*liveMutex)
	if !ok || m.rt != p.rt {
		panic("livetrace: mutex from another runtime")
	}
	p.buf.Emit(p.rt.now(), trace.EvLockAcquire, m.id, 0)
	if m.mu.TryLock() { //lint:ignore missingunlock Lock implements the protocol; the caller releases via proc.Unlock
		m.holder.Store(int64(p.id) + 1)
		p.buf.Emit(p.rt.now(), trace.EvLockObtain, m.id, 0)
		return
	}
	//lint:ignore missingunlock Lock implements the protocol; the caller releases via proc.Unlock
	m.mu.Lock()
	m.holder.Store(int64(p.id) + 1)
	p.buf.Emit(p.rt.now(), trace.EvLockObtain, m.id, 1)
}

// TryLock implements harness.Proc. A failed try emits nothing — a
// dangling acquire with no obtain would corrupt the analysis — and a
// successful one is by construction uncontended.
func (p *proc) TryLock(hm harness.Mutex) bool {
	m, ok := hm.(*liveMutex)
	if !ok || m.rt != p.rt {
		panic("livetrace: mutex from another runtime")
	}
	//lint:ignore missingunlock TryLock implements the protocol; the caller releases via proc.Unlock
	if !m.mu.TryLock() {
		return false
	}
	m.holder.Store(int64(p.id) + 1)
	p.buf.Emit(p.rt.now(), trace.EvLockAcquire, m.id, 0)
	p.buf.Emit(p.rt.now(), trace.EvLockObtain, m.id, 0)
	return true
}

// Unlock implements harness.Proc. The release event is stamped before
// the real unlock (see the package comment). Unlocking a mutex this
// thread does not own panics before any event is emitted, so the
// trace stays valid and Run reports the error — identical failure
// semantics to the simulator backend.
func (p *proc) Unlock(hm harness.Mutex) {
	m, ok := hm.(*liveMutex)
	if !ok || m.rt != p.rt {
		panic("livetrace: mutex from another runtime")
	}
	if !m.holder.CompareAndSwap(int64(p.id)+1, 0) {
		panic(fmt.Sprintf("livetrace: thread %s unlocks %q it does not own", p.name, m.name))
	}
	p.buf.Emit(p.rt.now(), trace.EvLockRelease, m.id, 0)
	m.mu.Unlock()
}

// RLock implements harness.Proc with try-lock contention detection on
// the shared path.
func (p *proc) RLock(hm harness.Mutex) {
	m, ok := hm.(*liveMutex)
	if !ok || m.rt != p.rt {
		panic("livetrace: mutex from another runtime")
	}
	p.buf.Emit(p.rt.now(), trace.EvLockAcquire, m.id, trace.LockArgShared)
	if m.mu.TryRLock() { //lint:ignore missingunlock RLock implements the protocol; the caller releases via proc.RUnlock
		m.readers.Add(1)
		p.buf.Emit(p.rt.now(), trace.EvLockObtain, m.id, trace.LockArgShared)
		return
	}
	//lint:ignore missingunlock RLock implements the protocol; the caller releases via proc.RUnlock
	m.mu.RLock()
	m.readers.Add(1)
	p.buf.Emit(p.rt.now(), trace.EvLockObtain, m.id, trace.LockArgShared|trace.LockArgContended)
}

// RUnlock implements harness.Proc. Read-unlocking with no readers
// panics before any event is emitted (see Unlock).
func (p *proc) RUnlock(hm harness.Mutex) {
	m, ok := hm.(*liveMutex)
	if !ok || m.rt != p.rt {
		panic("livetrace: mutex from another runtime")
	}
	if m.readers.Add(-1) < 0 {
		m.readers.Add(1)
		panic(fmt.Sprintf("livetrace: thread %s read-unlocks %q with no readers", p.name, m.name))
	}
	p.buf.Emit(p.rt.now(), trace.EvLockRelease, m.id, trace.LockArgShared)
	m.mu.RUnlock()
}

// TryRLocker is the shared-mode try extension: sync.RWMutex has
// TryRLock, harness.Proc does not (the simulator never needed it), so
// instrumented programs (critlock/clrt) reach it through this
// interface. Only the live backend implements it.
type TryRLocker interface {
	// TryRLock attempts a shared hold of m without blocking. Like
	// TryLock, a failed try emits no events and a successful one is by
	// construction uncontended.
	TryRLock(m harness.Mutex) bool
}

var _ TryRLocker = (*proc)(nil)

// TryRLock implements TryRLocker.
func (p *proc) TryRLock(hm harness.Mutex) bool {
	m, ok := hm.(*liveMutex)
	if !ok || m.rt != p.rt {
		panic("livetrace: mutex from another runtime")
	}
	//lint:ignore missingunlock TryRLock implements the protocol; the caller releases via proc.RUnlock
	if !m.mu.TryRLock() {
		return false
	}
	m.readers.Add(1)
	p.buf.Emit(p.rt.now(), trace.EvLockAcquire, m.id, trace.LockArgShared)
	p.buf.Emit(p.rt.now(), trace.EvLockObtain, m.id, trace.LockArgShared)
	return true
}

// BarrierWait implements harness.Proc.
func (p *proc) BarrierWait(hb harness.Barrier) {
	b, ok := hb.(*liveBarrier)
	if !ok || b.rt != p.rt {
		panic("livetrace: barrier from another runtime")
	}
	p.buf.Emit(p.rt.now(), trace.EvBarrierArrive, b.id, 0)
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.gen++
		// Stamp the last arriver's depart while still holding the
		// barrier mutex so it precedes every waiter's depart.
		p.buf.Emit(p.rt.now(), trace.EvBarrierDepart, b.id, 1)
		b.cv.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cv.Wait()
	}
	b.mu.Unlock()
	p.buf.Emit(p.rt.now(), trace.EvBarrierDepart, b.id, 0)
}

// Wait implements harness.Proc: release m, wait for a signal on c,
// reacquire m.
func (p *proc) Wait(hc harness.Cond, hm harness.Mutex) {
	c, ok := hc.(*liveCond)
	if !ok || c.rt != p.rt {
		panic("livetrace: cond from another runtime")
	}
	m, ok := hm.(*liveMutex)
	if !ok || m.rt != p.rt {
		panic("livetrace: mutex from another runtime")
	}
	ch := make(chan struct{})
	c.mu.Lock()
	c.waiters = append(c.waiters, ch)
	c.mu.Unlock()

	p.buf.Emit(p.rt.now(), trace.EvCondWaitBegin, c.id, int64(m.id))
	p.Unlock(hm)
	<-ch
	// Reacquire with the standard instrumented path so the analyzer
	// sees the mutex dependency of the wakeup.
	//lint:ignore missingunlock Wait's contract is to return with the mutex re-held
	p.Lock(hm)
	p.buf.Emit(p.rt.now(), trace.EvCondWaitEnd, c.id, int64(m.id))
}

// Signal implements harness.Proc.
func (p *proc) Signal(hc harness.Cond) {
	c, ok := hc.(*liveCond)
	if !ok || c.rt != p.rt {
		panic("livetrace: cond from another runtime")
	}
	c.mu.Lock()
	var ch chan struct{}
	if len(c.waiters) > 0 {
		ch = c.waiters[0]
		c.waiters = c.waiters[1:]
	}
	// Stamp the signal while holding the cond registry lock so the
	// analyzer's FIFO signal→waiter pairing matches reality.
	p.buf.Emit(p.rt.now(), trace.EvCondSignal, c.id, 0)
	c.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// Broadcast implements harness.Proc.
func (p *proc) Broadcast(hc harness.Cond) {
	c, ok := hc.(*liveCond)
	if !ok || c.rt != p.rt {
		panic("livetrace: cond from another runtime")
	}
	c.mu.Lock()
	waiters := c.waiters
	c.waiters = nil
	p.buf.Emit(p.rt.now(), trace.EvCondBroadcast, c.id, 0)
	c.mu.Unlock()
	for _, ch := range waiters {
		close(ch)
	}
}

// liveMutex wraps sync.RWMutex (exclusive and shared acquisition).
type liveMutex struct {
	rt   *Runtime
	id   trace.ObjID
	name string
	mu   sync.RWMutex

	// holder is the exclusive owner's thread id + 1 (0 = unheld) and
	// readers the shared-holder count. They exist so that unlocking a
	// mutex the thread does not hold fails loudly BEFORE any release
	// event reaches the trace — the same recovered-panic semantics
	// (and message shape) as the simulator backend, instead of a
	// sync.RWMutex runtime fatal after a corrupting dangling release.
	holder  atomic.Int64
	readers atomic.Int64
}

// Name implements harness.Mutex.
func (m *liveMutex) Name() string { return m.name }

// liveBarrier is a generation-counted barrier.
type liveBarrier struct {
	rt      *Runtime
	id      trace.ObjID
	name    string
	parties int

	mu    sync.Mutex
	cv    *sync.Cond
	count int
	gen   int
}

// Name implements harness.Barrier.
func (b *liveBarrier) Name() string { return b.name }

// Parties implements harness.Barrier.
func (b *liveBarrier) Parties() int { return b.parties }

// liveCond pairs signals to waiters in FIFO order via per-waiter
// channels.
type liveCond struct {
	rt   *Runtime
	id   trace.ObjID
	name string

	mu      sync.Mutex
	waiters []chan struct{}
}

// Name implements harness.Cond.
func (c *liveCond) Name() string { return c.name }
