package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"critlock"
	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/report"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

// convoyTrace records a mutex convoy of about n events through the
// product's trace collector (the shape of the repository's largeTrace
// benchmark): 16 threads take one hot lock in round-robin order, each
// followed by a private section on a cold lock. Hold times and the gap
// between rounds are jittered from rng.
func convoyTrace(n int, rng *rand.Rand) *trace.Trace {
	const threads = 16
	col := trace.NewCollector()
	col.SetMeta("workload", "convoy")
	bufs := make([]*trace.ThreadBuffer, threads)
	bufs[0] = col.RegisterThread("t0", trace.NoThread)
	for i := 1; i < threads; i++ {
		bufs[i] = col.RegisterThread(fmt.Sprintf("t%d", i), 0)
	}
	hot := col.RegisterObject(trace.ObjMutex, "hot", 0)
	cold := col.RegisterObject(trace.ObjMutex, "cold", 0)

	bufs[0].Emit(0, trace.EvThreadStart, trace.NoObj, int64(trace.NoThread))
	for i := 1; i < threads; i++ {
		bufs[0].Emit(0, trace.EvThreadCreate, trace.NoObj, int64(i))
		bufs[i].Emit(0, trace.EvThreadStart, trace.NoObj, 0)
	}
	tm, free := trace.Time(1), trace.Time(0)
	for r := 0; r < n/(threads*6); r++ {
		for k, b := range bufs {
			acq := tm + trace.Time(k)
			obt := max(acq, free+1)
			rel := obt + 5 + trace.Time(rng.Intn(9))
			arg := int64(0)
			if obt > acq {
				arg = trace.LockArgContended
			}
			b.Emit(acq, trace.EvLockAcquire, hot, 0)
			b.Emit(obt, trace.EvLockObtain, hot, arg)
			b.Emit(rel, trace.EvLockRelease, hot, 0)
			b.Emit(rel, trace.EvLockAcquire, cold, 0)
			b.Emit(rel, trace.EvLockObtain, cold, 0)
			b.Emit(rel+1, trace.EvLockRelease, cold, 0)
			free = rel
		}
		tm = free + 20 + trace.Time(rng.Intn(10))
	}
	for _, b := range bufs {
		b.Emit(tm, trace.EvThreadExit, trace.NoObj, 0)
	}
	return col.Finish()
}

// mixedTrace runs the mixed_2m program for about n events on the
// simulator. A producer feeds a capacity-2 stage channel; four workers
// take items, read a shared configuration under a read-mostly RWMutex,
// work, update a hot mutex, count finished items for a batcher that
// waits on a condition variable, and report on a results channel; a
// barrier closes every round, and a collector drains the results.
func mixedTrace(n int, seed int64) (*trace.Trace, error) {
	const (
		workers  = 4
		perRound = 8  // items per worker per round
		batch    = 16 // items per batcher hand-off
		perItem  = 18 // events one item costs across all threads, measured
	)
	rounds := max(1, n/(perItem*workers*perRound))
	total := rounds * workers * perRound
	jitter := func(q critlock.Proc, d int64) critlock.Time {
		return critlock.Time(d/2 + q.Rand().Int63n(d))
	}

	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: seed})
	sim.SetMeta("workload", "mixed")
	hot := sim.NewMutex("mixed.hot")
	cfg := sim.NewMutex("mixed.cfg")
	batchMu := sim.NewMutex("mixed.batch")
	ready := sim.NewCond("mixed.ready")
	stage := sim.NewChan("mixed.stage", 2)
	results := sim.NewChan("mixed.results", 16)
	round := sim.NewBarrier("mixed.round", workers)
	pending := 0 // finished items not yet batched, guarded by batchMu

	tr, _, err := sim.Run(func(p critlock.Proc) {
		kids := []critlock.Thread{p.Go("producer", func(q critlock.Proc) {
			for r := 0; r < rounds; r++ {
				q.Lock(cfg)
				q.Compute(200)
				q.Unlock(cfg)
				for i := 0; i < workers*perRound; i++ {
					q.Compute(jitter(q, 300))
					q.Send(stage)
				}
			}
			q.Close(stage)
		})}
		for w := 0; w < workers; w++ {
			kids = append(kids, p.Go(fmt.Sprintf("worker-%d", w), func(q critlock.Proc) {
				for r := 0; r < rounds; r++ {
					for i := 0; i < perRound; i++ {
						q.Recv(stage)
						q.RLock(cfg)
						q.Compute(50)
						q.RUnlock(cfg)
						q.Compute(jitter(q, 2000))
						q.Lock(hot)
						q.Compute(jitter(q, 600))
						q.Unlock(hot)
						q.Lock(batchMu)
						pending++
						if pending%batch == 0 {
							q.Signal(ready)
						}
						q.Unlock(batchMu)
						q.Send(results)
					}
					q.BarrierWait(round)
				}
			}))
		}
		kids = append(kids, p.Go("batcher", func(q critlock.Proc) {
			for b := 0; b < total/batch; b++ {
				q.Lock(batchMu)
				for pending < batch {
					q.Wait(ready, batchMu)
				}
				pending -= batch
				q.Unlock(batchMu)
				q.Compute(jitter(q, 1500))
			}
		}), p.Go("collector", func(q critlock.Proc) {
			for i := 0; i < total; i++ {
				q.Recv(results)
			}
		}))
		for _, k := range kids {
			p.Join(k)
		}
	})
	return tr, err
}

// traceInput is one trace stored the two ways users hand it to the
// product: a segment directory (cla -segdir, clasrv ?segdir=) and a
// binary .cltr file (cla file.cltr, clasrv uploads).
type traceInput struct {
	name      string
	segdir    string
	cltr      string
	events    int
	expectTop string // the lock the analysis must rank first
}

// storeTrace writes tr under dir as a 64K-event segment directory and a
// .cltr file, returning the segment directory's size and write time.
func storeTrace(dir, name string, tr *trace.Trace) (in traceInput, segTime time.Duration, segBytes int64, err error) {
	in = traceInput{
		name:   name,
		segdir: filepath.Join(dir, name+".seg"),
		cltr:   filepath.Join(dir, name+".cltr"),
		events: len(tr.Events),
	}
	start := time.Now()
	if err = segment.WriteTrace(in.segdir, tr, segment.Options{}); err != nil {
		return in, 0, 0, fmt.Errorf("writing segments of %s: %w", name, err)
	}
	segTime = time.Since(start)
	if segBytes, err = dirBytes(in.segdir); err != nil {
		return in, 0, 0, err
	}
	f, err := os.Create(in.cltr)
	if err != nil {
		return in, 0, 0, err
	}
	if err = trace.WriteBinary(f, tr); err != nil {
		f.Close()
		return in, 0, 0, fmt.Errorf("writing %s: %w", in.cltr, err)
	}
	if err = f.Close(); err != nil {
		return in, 0, 0, err
	}
	return in, segTime, segBytes, nil
}

// dirBytes sums the sizes of the files directly under dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// segdirOp is what `cla -hazards -segdir DIR` runs: the streaming
// analysis of the directory, then the hazard pass over a fresh reader.
// It also returns how long the analysis alone took.
func segdirOp(dir string) (*critlock.Analysis, *hazard.Report, time.Duration, error) {
	start := time.Now()
	an, err := critlock.Analyze(critlock.SegmentDirSource(dir))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("analyzing %s: %w", dir, err)
	}
	analyzeDur := time.Since(start)
	hz, err := hazardsOf(dir)
	return an, hz, analyzeDur, err
}

// hazardsOf is the hazard pass of `cla -hazards -segdir DIR`, over a
// fresh reader of the directory.
func hazardsOf(dir string) (*hazard.Report, error) {
	r, err := segment.OpenWith(dir, segment.ReadOptions{})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	hz, err := hazard.FromSegments(r, 1)
	if err != nil {
		return nil, fmt.Errorf("hazard analysis of %s: %w", dir, err)
	}
	return hz, nil
}

// fileOp is what `cla FILE.cltr` runs: decode the file, then the
// in-memory analysis (validation on).
func fileOp(path string) (*trace.Trace, *core.Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		return nil, nil, fmt.Errorf("reading %s: %w", path, err)
	}
	an, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		return nil, nil, fmt.Errorf("analyzing %s: %w", path, err)
	}
	return tr, an, nil
}

// exportOf is the analysis as cla -jsonreport exports it, with the
// header fields that name the producer and the pipeline cleared, so the
// segdir and file exports of one trace must be equal.
func exportOf(an *core.Analysis) *report.Export {
	return report.BuildExport("", "", false, an)
}

// exportDigest hashes the exported JSON bytes.
func exportDigest(rep *report.Export) ([32]byte, error) {
	h := sha256.New()
	if err := report.WriteExport(h, rep); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// sameExport reports whether two exports are equal field by field,
// which for these JSON-encoded structs means byte-identical JSON.
func sameExport(a, b *report.Export) bool { return reflect.DeepEqual(a, b) }

// topLock names the lock the analysis ranks first ("" without locks).
func topLock(an *core.Analysis) string {
	if len(an.Locks) == 0 {
		return ""
	}
	return an.Locks[0].Name
}

// settle collects the garbage set-up left behind, so every run's timed
// loop starts from the same heap.
func settle() {
	runtime.GC()
	runtime.GC()
}

// peakHeapMB runs fn while sampling the heap every millisecond and
// returns its peak growth over the pre-fn baseline, in MB (the method of
// the repository's measurePeakHeap). GC runs at 5% during the sample so
// the heap tracks live data rather than garbage, and twice before the
// baseline so pooled scratch from earlier runs is not counted in it.
func peakHeapMB(fn func()) float64 {
	prev := debug.SetGCPercent(5)
	defer debug.SetGCPercent(prev)
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak atomic.Uint64
	peak.Store(base)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				var s runtime.MemStats
				runtime.ReadMemStats(&s)
				if s.HeapAlloc > peak.Load() {
					peak.Store(s.HeapAlloc)
				}
			}
		}
	}()
	fn()
	close(stop)
	<-done
	return float64(peak.Load()-base) / 1e6
}
