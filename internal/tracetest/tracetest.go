// Package tracetest builds benchmark-shaped traces for tests and Go
// benchmarks in more than one package: the mixed_2m program of the
// repository's benchmark, at any size.
package tracetest

import (
	"fmt"

	"critlock/internal/harness"
	"critlock/internal/sim"
	"critlock/internal/trace"
)

// Mixed simulates about n events of the benchmark's mixed_2m
// program: a producer feeds a capacity-2 stage channel; four workers
// take items, read a configuration under a read-mostly RWMutex, update
// a hot mutex, count items for a batcher that waits on a condition
// variable and report on a results channel; a barrier closes every
// round and a collector drains the results.
func Mixed(n int, seed int64) (*trace.Trace, error) {
	const (
		workers  = 4
		perRound = 8
		batch    = 16
		perItem  = 18
	)
	rounds := max(1, n/(perItem*workers*perRound))
	total := rounds * workers * perRound
	jitter := func(q harness.Proc, d int64) trace.Time {
		return trace.Time(d/2 + q.Rand().Int63n(d))
	}
	s := sim.New(sim.Config{Contexts: 8, Seed: seed})
	s.SetMeta("workload", "mixed")
	hot, cfg, batchMu := s.NewMutex("mixed.hot"), s.NewMutex("mixed.cfg"), s.NewMutex("mixed.batch")
	ready := s.NewCond("mixed.ready")
	stage, results := s.NewChan("mixed.stage", 2), s.NewChan("mixed.results", 16)
	round := s.NewBarrier("mixed.round", workers)
	pending := 0

	tr, _, err := s.Run(func(p harness.Proc) {
		kids := []harness.Thread{p.Go("producer", func(q harness.Proc) {
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
			kids = append(kids, p.Go(fmt.Sprintf("worker-%d", w), func(q harness.Proc) {
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
		kids = append(kids, p.Go("batcher", func(q harness.Proc) {
			for b := 0; b < total/batch; b++ {
				q.Lock(batchMu)
				for pending < batch {
					q.Wait(ready, batchMu)
				}
				pending -= batch
				q.Unlock(batchMu)
				q.Compute(jitter(q, 1500))
			}
		}), p.Go("collector", func(q harness.Proc) {
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
