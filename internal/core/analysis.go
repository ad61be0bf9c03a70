// Package core implements critical lock analysis, the contribution of
// "Critical Lock Analysis: Diagnosing Critical Section Bottlenecks in
// Multithreaded Applications" (Chen & Stenström, SC 2012).
//
// Given a synchronization-event trace (internal/trace), the analyzer
//
//  1. resolves, for every blocking event, the remote event that
//     released the blocked thread (the "waker": the previous lock
//     holder's release, a barrier's last arriver, a condition
//     variable's signaller, a joinee's exit, or a creator's create),
//  2. walks the execution backwards from the last-finishing thread
//     along those dependencies — the algorithm of Fig. 2 in the paper —
//     yielding the critical path as a set of per-thread time intervals,
//  3. marks every critical-section hold interval intersecting the
//     critical path as a hot critical section and its mutex as a
//     critical lock, and
//  4. computes the paper's TYPE 1 metrics (CP Time %, invocations on
//     CP, contention probability on CP) alongside the classical TYPE 2
//     metrics (wait time %, average invocations, average contention
//     probability, average hold time %) that prior tools report.
package core

import (
	"sort"

	"critlock/internal/obs"
	"critlock/internal/trace"
)

// Options tunes the analysis.
type Options struct {
	// ClipHold, when true (the default used by DefaultOptions),
	// credits a hot critical section only with the part of its hold
	// interval that lies on walked critical-path intervals. When false,
	// any invocation touching the critical path is credited with its
	// full hold time — the coarser accounting some prior tools use;
	// kept as an ablation knob (experiment "ablation-clipping").
	ClipHold bool
	// Observer, when non-nil, receives self-instrumentation callbacks:
	// per-phase timings and cumulative Progress snapshots. Observation
	// never changes analysis results.
	Observer obs.Observer
}

// DefaultOptions returns the recommended options: clipped hold
// accounting.
func DefaultOptions() Options { return Options{ClipHold: true} }

// Analysis is the result of critical lock analysis on one trace.
type Analysis struct {
	// Trace is the analyzed trace's skeleton: threads, objects and
	// metadata, without events. Sections that replay events take the
	// SegmentSource the analysis ran over.
	Trace *trace.Trace
	// Start is the first event's time; the run ends at Start +
	// CP.WallTime.
	Start trace.Time
	// CP describes the reconstructed critical path.
	CP CriticalPath
	// Locks holds per-lock statistics, sorted by descending CP Time
	// (critical locks first, exactly the ordering the paper's case
	// study tables use).
	Locks []LockStats
	// Chans holds per-channel statistics, sorted by descending wait
	// time on the critical path (hot channels first).
	Chans []ChanStats
	// Threads holds per-thread summaries indexed by ThreadID.
	Threads []ThreadStats
	// Totals aggregates whole-run figures.
	Totals Totals

	// hotByLock holds the on-path (clipped) hold intervals per lock;
	// it feeds Composition and Windows.
	hotByLock map[trace.ObjID][]interval
	// ann holds pass 1's records of the blocked events and their
	// wakers, which Slack reads (nil on an Analysis that no pass 1
	// built).
	ann *annStore
}

// CriticalPath is the walked critical path.
type CriticalPath struct {
	// Pieces are the walked per-thread intervals in forward time
	// order. Executed and wait pieces are distinguished by Kind.
	Pieces []Piece
	// Length is the total walked time (sum of piece durations); the
	// denominator of every "CP Time %" figure.
	Length trace.Time
	// ExecTime is the executed (non-wait) time on the path.
	ExecTime trace.Time
	// WaitTime is wait time that could not be jumped over (waker
	// unknown); zero for simulator traces.
	WaitTime trace.Time
	// WallTime is last event time minus first event time.
	WallTime trace.Time
	// LastThread is the thread whose exit anchors the walk.
	LastThread trace.ThreadID
	// Steps is the number of walk iterations (diagnostics).
	Steps int
	// Jumps is the number of cross-thread jumps taken.
	Jumps int
	// JumpLog records each cross-thread jump in forward time order
	// (the dependency chain the path follows).
	JumpLog []Jump
}

// JumpKind classifies a cross-thread dependency on the critical path.
type JumpKind uint8

const (
	// JumpLock: blocked on a mutex, released by the previous holder.
	JumpLock JumpKind = iota + 1
	// JumpBarrier: released by the episode's last arriver.
	JumpBarrier
	// JumpCond: woken by a signal/broadcast.
	JumpCond
	// JumpJoin: unblocked by the joinee's exit.
	JumpJoin
	// JumpStart: a thread's existence depends on its creator.
	JumpStart
	// JumpChan: blocked on a channel operation, released by the peer
	// that delivered a value (for receives), freed a buffer slot (for
	// sends) or closed the channel.
	JumpChan
)

// String names the jump kind.
func (k JumpKind) String() string {
	switch k {
	case JumpLock:
		return "lock"
	case JumpBarrier:
		return "barrier"
	case JumpCond:
		return "cond"
	case JumpJoin:
		return "join"
	case JumpStart:
		return "start"
	case JumpChan:
		return "chan"
	}
	return "unknown"
}

// Jump is one cross-thread hop of the critical path: at T the path
// leaves From (which was blocked) and continues on To (which released
// it), through the named object when applicable.
type Jump struct {
	T    trace.Time
	From trace.ThreadID
	To   trace.ThreadID
	Kind JumpKind
	// Obj is the mutex/barrier/cond/chan involved, or NoObj.
	Obj trace.ObjID
	// Wait is how long From was blocked before the jump (the interval
	// between its previous event and the unblock); zero for
	// thread-start jumps.
	Wait trace.Time
}

// Coverage returns Length/WallTime — 1.0 when the walked intervals
// tile the whole execution, as they do for simulator traces.
func (cp *CriticalPath) Coverage() float64 {
	if cp.WallTime <= 0 {
		return 0
	}
	return float64(cp.Length) / float64(cp.WallTime)
}

// PieceKind classifies critical-path pieces.
type PieceKind uint8

const (
	// PieceExec is executed code on the critical path.
	PieceExec PieceKind = iota
	// PieceWait is blocked time on the critical path that the walk
	// could not attribute to a waker.
	PieceWait
)

// Piece is one contiguous per-thread interval on the critical path.
type Piece struct {
	Thread trace.ThreadID
	// first and last are the event indices of the stretch of its
	// thread the walk visited for this piece: its endpoints, widened
	// over zero-time steps so the pieces of one visit to a thread tile
	// it. Reports show times only.
	first    int32
	From, To trace.Time
	last     int32
	Kind     PieceKind
}

// Dur returns the piece duration.
func (p Piece) Dur() trace.Time { return p.To - p.From }

// LockStats carries both metric families for one mutex.
type LockStats struct {
	Lock trace.ObjID
	Name string

	// TYPE 1 — along the critical path (this paper's metrics).

	// Critical reports whether any hot critical section of this lock
	// lies on the critical path.
	Critical bool
	// HoldOnCP is total hot-critical-section time on the path.
	HoldOnCP trace.Time
	// CPTimePct is HoldOnCP / CP.Length (the paper's "CP Time %").
	CPTimePct float64
	// InvocationsOnCP counts critical-section invocations whose hold
	// interval intersects the critical path ("Invocation # on CP").
	InvocationsOnCP int
	// ContendedOnCP counts contended invocations among those.
	ContendedOnCP int
	// ContProbOnCP is ContendedOnCP/InvocationsOnCP ("Cont. Prob. on
	// CP %").
	ContProbOnCP float64
	// InvIncrease is InvocationsOnCP divided by the average number of
	// invocations per thread (the paper's "Incr. Times of Invo. #").
	InvIncrease float64
	// SizeIncrease is CPTimePct divided by AvgHoldTimePct (the paper's
	// "Incr. Times of Critical Section Size").
	SizeIncrease float64

	// TYPE 2 — per-lock statistics as reported by prior tools.

	// TotalInvocations counts all critical sections of the lock.
	TotalInvocations int
	// SharedInvocations counts reader (shared) acquisitions among
	// them (read-write mutexes).
	SharedInvocations int
	// TotalContended counts contended ones.
	TotalContended int
	// AvgInvPerThread is TotalInvocations / thread count.
	AvgInvPerThread float64
	// AvgContProb is TotalContended / TotalInvocations ("Avg. Cont.
	// Prob %").
	AvgContProb float64
	// TotalWait is the summed wait (acquire→obtain) time.
	TotalWait trace.Time
	// TotalHold is the summed hold (obtain→release) time.
	TotalHold trace.Time
	// WaitTimePct is the average over threads of (thread's wait on
	// this lock / thread lifetime) — the paper's "Wait Time %".
	WaitTimePct float64
	// AvgHoldTimePct is the average over threads of (thread's hold of
	// this lock / thread lifetime) — the paper's "Avg. Hold Time %".
	AvgHoldTimePct float64
	// MaxWait and MaxHold are the longest single wait and hold.
	MaxWait trace.Time
	MaxHold trace.Time
}

// ChanStats carries per-channel statistics. Channels are waker edges
// rather than critical sections: the on-path figures count the
// cross-thread jumps the walked critical path takes through the
// channel and the blocked time those jumps absorbed, the analogue of
// a lock's CP Time for handoff-style synchronization.
type ChanStats struct {
	Chan trace.ObjID
	Name string
	// Capacity is the buffer capacity (0 = unbuffered).
	Capacity int

	// Sends, Recvs and Closes count completed operations.
	Sends  int
	Recvs  int
	Closes int
	// BlockedSends / BlockedRecvs count operations that parked.
	BlockedSends int
	BlockedRecvs int
	// SendWait / RecvWait are summed blocked durations per direction.
	SendWait trace.Time
	RecvWait trace.Time
	// MaxWait is the longest single blocked operation.
	MaxWait trace.Time

	// JumpsOnCP counts critical-path jumps through this channel.
	JumpsOnCP int
	// WaitOnCP is the blocked time those jumps absorbed — the time the
	// critical path spent waiting on this channel.
	WaitOnCP trace.Time
	// TotalWait is SendWait + RecvWait.
	TotalWait trace.Time
}

// ThreadStats summarizes one thread.
type ThreadStats struct {
	Thread   trace.ThreadID
	Name     string
	Start    trace.Time
	End      trace.Time
	Lifetime trace.Time
	// LockWait is total time blocked on mutexes.
	LockWait trace.Time
	// LockHold is total time inside critical sections (sums nested
	// holds independently).
	LockHold trace.Time
	// BarrierWait is total time blocked at barriers.
	BarrierWait trace.Time
	// CondWait is total time blocked in condition waits.
	CondWait trace.Time
	// ChanWait is total time blocked in channel sends and receives.
	ChanWait trace.Time
	// JoinWait is total time blocked joining other threads.
	JoinWait trace.Time
	// Invocations counts critical sections executed.
	Invocations int
	// TimeOnCP is walked critical-path time attributed to the thread.
	TimeOnCP trace.Time
}

// Totals aggregates whole-run figures.
type Totals struct {
	Threads          int
	Mutexes          int
	Channels         int
	Events           int
	Invocations      int
	ContendedInvs    int
	TotalLockWait    trace.Time
	TotalLockHold    trace.Time
	TotalBarrierWait trace.Time
	TotalCondWait    trace.Time
	TotalChanWait    trace.Time
}

// Analyze runs critical lock analysis on an in-memory trace with the
// given options: AnalyzeSource(TraceSource(tr), ...).
func Analyze(tr *trace.Trace, opts Options) (*Analysis, error) {
	return AnalyzeSource(TraceSource(tr), Config{Options: opts})
}

// AnalyzeDefault runs Analyze with DefaultOptions.
func AnalyzeDefault(tr *trace.Trace) (*Analysis, error) {
	return Analyze(tr, DefaultOptions())
}

// Lock returns the stats for the lock with the given name, or nil.
func (a *Analysis) Lock(name string) *LockStats {
	for i := range a.Locks {
		if a.Locks[i].Name == name {
			return &a.Locks[i]
		}
	}
	return nil
}

// Chan returns the stats for the channel with the given name, or nil.
func (a *Analysis) Chan(name string) *ChanStats {
	for i := range a.Chans {
		if a.Chans[i].Name == name {
			return &a.Chans[i]
		}
	}
	return nil
}

// CriticalLocks returns the subset of locks on the critical path, most
// critical first.
func (a *Analysis) CriticalLocks() []LockStats {
	var out []LockStats
	for _, l := range a.Locks {
		if l.Critical {
			out = append(out, l)
		}
	}
	return out
}

// TopLocks returns up to n locks ranked by CP Time (the paper's
// ordering); if fewer locks exist, all are returned.
func (a *Analysis) TopLocks(n int) []LockStats {
	if n > len(a.Locks) {
		n = len(a.Locks)
	}
	return a.Locks[:n]
}

// sortChans orders channels by descending critical-path wait, breaking
// ties by descending total wait and then by name for determinism.
func sortChans(chans []ChanStats) {
	sort.Slice(chans, func(i, j int) bool {
		a, b := &chans[i], &chans[j]
		if a.WaitOnCP != b.WaitOnCP {
			return a.WaitOnCP > b.WaitOnCP
		}
		if a.TotalWait != b.TotalWait {
			return a.TotalWait > b.TotalWait
		}
		return a.Name < b.Name
	})
}

// sortLocks orders locks by descending CP time, breaking ties by
// descending wait time and then by name for determinism.
func sortLocks(locks []LockStats) {
	sort.Slice(locks, func(i, j int) bool {
		a, b := &locks[i], &locks[j]
		if a.HoldOnCP != b.HoldOnCP {
			return a.HoldOnCP > b.HoldOnCP
		}
		if a.TotalWait != b.TotalWait {
			return a.TotalWait > b.TotalWait
		}
		return a.Name < b.Name
	})
}
