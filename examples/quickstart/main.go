// Quickstart: simulate a small multithreaded program, run critical
// lock analysis, and print the paper-style report plus a timeline.
//
//	go run ./examples/quickstart
//
// The program has two locks. "logger" is hammered by four parser
// workers — it shows the longest waits, so idleness-based profiling
// flags it. But the workers finish early; the run's completion time is
// set by a single indexer thread whose "index" critical sections are
// never contended at all. Critical lock analysis ranks them correctly:
// "index" owns the critical path, the logger convoy is overlapped.
package main

import (
	"fmt"
	"log"
	"os"

	"critlock"
)

func main() {
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	logger := sim.NewMutex("logger")
	index := sim.NewMutex("index")

	tr, elapsed, err := sim.Run(func(p critlock.Proc) {
		// The indexer: a long serial merge, alone on its lock.
		indexer := p.Go("indexer", func(q critlock.Proc) {
			for i := 0; i < 20; i++ {
				q.Compute(1_000) // read a batch
				q.Lock(index)
				q.Compute(4_000) // merge it — uncontended but on the path
				q.Unlock(index)
			}
		})
		// Four parsers racing on the logger: long waits, all overlapped.
		var workers []critlock.Thread
		for i := 0; i < 4; i++ {
			workers = append(workers, p.Go("parser", func(q critlock.Proc) {
				for j := 0; j < 5; j++ {
					q.Compute(2_000) // parse a record
					q.Lock(logger)
					q.Compute(2_000) // append to the shared log
					q.Unlock(logger)
				}
			}))
		}
		for _, w := range workers {
			p.Join(w)
		}
		p.Join(indexer)
	})
	if err != nil {
		log.Fatal(err)
	}

	an, err := critlock.Analyze(critlock.TraceSource(tr))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("completed in %d virtual ns\n\n", elapsed)
	critlock.Summary(os.Stdout, an)
	fmt.Println()
	fmt.Println(critlock.LockTable(an, 0))
	timeline, err := critlock.Timeline(an, critlock.TraceSegments(tr), 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(timeline)

	top := an.Locks[0]
	byWait := top
	for _, l := range an.Locks {
		if l.WaitTimePct > byWait.WaitTimePct {
			byWait = l
		}
	}
	fmt.Printf("=> critical lock analysis:   optimize %q (%.1f%% of the critical path)\n",
		top.Name, top.CPTimePct)
	fmt.Printf("=> idleness-based profiling: would pick %q (%.1f%% wait time) — whose waits are overlapped\n",
		byWait.Name, byWait.WaitTimePct)
}
