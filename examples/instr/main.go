// This program is the end-to-end target for cmd/clainstr: an
// ordinary Go program — plain sync primitives and channels, no
// critlock imports — with a deliberately hot lock. The instrumenter
// rewrites a copy of this directory onto the clrt runtime; running
// the copy records a trace in which statsMu dominates the critical
// path (docs/GUIDE.md walks through the whole flow, and the
// instr-smoke CI target asserts the planted bottleneck is found).
//
// The shape is the paper's motivating pattern: a worker pool where
// each item's real work happens outside any lock, but every worker
// funnels through one global stats mutex whose critical section does
// non-trivial work (a table scan), serializing the pool.
package main

import (
	"fmt"
	"os"
	"sync"
)

const (
	workers = 4
	items   = 400
)

// statsMu is the planted bottleneck: every processed item updates the
// shared histogram under it, and the update walks the whole table.
var statsMu sync.Mutex

// configMu guards rare reads of shared configuration; it is here as a
// foil — read once, by main before any worker starts, it lies on the
// critical path in every run yet ranks far below statsMu.
var configMu sync.RWMutex

var (
	histogram [4096]int
	checksum  int
	processed int
	scale     = 3
)

// process does the per-item work that needs no lock at all.
func process(item int) int {
	h := item
	for i := 0; i < 500; i++ {
		h = h*1103515245 + 12345
	}
	return h
}

// recordStats is the hot critical section: a full histogram walk under
// the global mutex.
func recordStats(h int) {
	statsMu.Lock()
	defer statsMu.Unlock()
	idx := h & (len(histogram) - 1)
	histogram[idx]++
	// The needless part: recompute the running checksum over the whole
	// table on every update, all of it under the global lock.
	sum := 0
	for round := 0; round < 8; round++ {
		for i := range histogram {
			sum = sum*31 + histogram[i]
		}
	}
	checksum = sum
	processed++
}

// readScale takes the read side of the config lock.
func readScale() int {
	configMu.RLock()
	defer configMu.RUnlock()
	return scale
}

func worker(k int, work chan int, done *sync.WaitGroup) {
	defer done.Done()
	for item := range work {
		h := process(item * k)
		recordStats(h)
	}
}

func main() {
	k := readScale()
	work := make(chan int, workers)
	var done sync.WaitGroup
	for w := 0; w < workers; w++ {
		done.Add(1)
		go worker(k, work, &done)
	}
	for i := 0; i < items; i++ {
		work <- i
	}
	close(work)
	done.Wait()

	statsMu.Lock()
	n := processed
	statsMu.Unlock()
	if n != items {
		fmt.Fprintf(os.Stderr, "processed %d of %d items\n", n, items)
		os.Exit(1)
	}
	fmt.Printf("processed %d items across %d workers\n", n, workers)
}
