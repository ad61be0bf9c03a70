package clrt

import (
	"sync"

	"critlock/internal/harness"
	"critlock/internal/livetrace"
)

// Mutex is the traced drop-in replacement for sync.Mutex. The zero
// value is ready to use, locks passed by pointer and struct-embedded
// mutexes behave exactly as with sync.Mutex, and Lock/Unlock/TryLock
// have sync's blocking semantics (backed by a real sync.Mutex in the
// live runtime) with acquire/obtain/release events recorded around
// them.
//
// The mutex registers itself in the trace on first use. The
// instrumenter injects SetName calls for named declarations (package
// vars, local vars); anonymous instances (struct fields, map values)
// fall back to "mutex@file:line" of the first call site that locked
// them.
type Mutex struct {
	name string
	once sync.Once
	h    harness.Mutex
}

// SetName sets the name this mutex reports under in analysis output.
// It must be called before the first Lock/TryLock; later calls have no
// effect (the trace object is registered once).
func (m *Mutex) SetName(name string) { m.name = name }

func (m *Mutex) handle(kind string) harness.Mutex {
	m.once.Do(func() {
		n := m.name
		if n == "" {
			n = autoName(kind)
		}
		m.h = ensureRuntime().NewMutex(n)
	})
	return m.h
}

// Lock acquires the mutex, blocking while another thread holds it; the
// wait and the hand-off edge are recorded.
func (m *Mutex) Lock() { cur().Lock(m.handle("mutex")) }

// Unlock releases the mutex. Only the goroutine holding it may unlock
// it: an Unlock from any other goroutine, or of an unlocked mutex,
// panics before a release is recorded. This is stricter than
// sync.Mutex, which lets any goroutine unlock a locked mutex and fails
// (fatally) only on unlocking an unlocked one.
func (m *Mutex) Unlock() { cur().Unlock(m.handle("mutex")) }

// TryLock acquires the mutex if it is free and reports whether it did.
// A failed try emits no trace events, matching the analysis model.
func (m *Mutex) TryLock() bool { return cur().TryLock(m.handle("mutex")) }

var _ sync.Locker = (*Mutex)(nil)

// RWMutex is the traced drop-in replacement for sync.RWMutex. Reader
// acquisitions are recorded as shared holds (TYPE 1/TYPE 2 metrics
// account them per the paper's read-lock treatment); writer
// acquisitions are exclusive.
type RWMutex struct {
	name string
	once sync.Once
	h    harness.Mutex
}

// SetName sets the name this lock reports under; see Mutex.SetName.
func (m *RWMutex) SetName(name string) { m.name = name }

func (m *RWMutex) handle() harness.Mutex {
	m.once.Do(func() {
		n := m.name
		if n == "" {
			n = autoName("rwmutex")
		}
		m.h = ensureRuntime().NewMutex(n)
	})
	return m.h
}

// Lock acquires the write lock.
func (m *RWMutex) Lock() { cur().Lock(m.handle()) }

// Unlock releases the write lock.
func (m *RWMutex) Unlock() { cur().Unlock(m.handle()) }

// TryLock acquires the write lock if immediately available.
func (m *RWMutex) TryLock() bool { return cur().TryLock(m.handle()) }

// RLock acquires a read (shared) lock.
func (m *RWMutex) RLock() { cur().RLock(m.handle()) }

// RUnlock releases a read lock. Releasing without a matching RLock
// panics before the trace can be corrupted.
func (m *RWMutex) RUnlock() { cur().RUnlock(m.handle()) }

// TryRLock acquires a read lock if immediately available.
func (m *RWMutex) TryRLock() bool {
	return cur().(livetrace.TryRLocker).TryRLock(m.handle())
}

// RLocker returns a sync.Locker whose Lock/Unlock are RLock/RUnlock,
// mirroring sync.RWMutex.RLocker.
func (m *RWMutex) RLocker() sync.Locker { return rlocker{m} }

type rlocker struct{ m *RWMutex }

//lint:ignore missingunlock Lock is the adapter's acquire half; the caller releases via rlocker.Unlock
func (r rlocker) Lock()   { r.m.RLock() }
func (r rlocker) Unlock() { r.m.RUnlock() }

var _ sync.Locker = (*RWMutex)(nil)
