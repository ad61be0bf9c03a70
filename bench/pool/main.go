// Command pool is the clrt_pool benchmark's target: an ordinary Go
// worker pool (plain sync primitives and channels, no critlock imports)
// with a planted hot lock. The benchmark builds it as is and, through
// the instrumenter, as a traced copy, and compares the two.
//
// Each item needs about 20 µs of work outside any lock; every worker
// then funnels through statsMu, whose critical section scans a shared
// table. The work per item varies with -seed, which is the only input
// besides the item count.
//
//	pool -items 15000 -seed 1
//
// It prints "processed N items in D ns", D being the time its workers
// took, so a caller can tell the program's own time from process start
// and exit costs (such as writing a trace).
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"
)

const workers = 2

// statsMu is the planted bottleneck.
var statsMu sync.Mutex

// configMu is a foil: read once per worker, it should rank far below
// statsMu.
var configMu sync.RWMutex

var (
	table     [2048]uint64
	checksum  uint64
	processed int
	rounds    = 9000
)

// work is the per-item computation, which needs no lock.
func work(item, seed uint64) uint64 {
	h := item*0x9E3779B97F4A7C15 ^ seed
	n := rounds/2 + int(h%uint64(rounds))
	for i := 0; i < n; i++ {
		h = h*6364136223846793005 + 1442695040888963407
	}
	return h
}

// record is the hot critical section: a full table scan under the
// global mutex.
func record(h uint64) {
	statsMu.Lock()
	defer statsMu.Unlock()
	table[h%uint64(len(table))]++
	var sum uint64
	for i := range table {
		sum = sum*31 + table[i]
	}
	checksum = sum
	processed++
}

func readRounds() int {
	configMu.RLock()
	defer configMu.RUnlock()
	return rounds
}

func worker(seed uint64, items chan uint64, done *sync.WaitGroup) {
	defer done.Done()
	if readRounds() <= 0 {
		return
	}
	for item := range items {
		record(work(item, seed))
	}
}

func main() {
	items := flag.Int("items", 15000, "items to process")
	seed := flag.Uint64("seed", 1, "seed for the per-item work")
	flag.Parse()

	start := time.Now()
	queue := make(chan uint64, workers)
	var done sync.WaitGroup
	for w := 0; w < workers; w++ {
		done.Add(1)
		go worker(*seed, queue, &done)
	}
	for i := 0; i < *items; i++ {
		queue <- uint64(i)
	}
	close(queue)
	done.Wait()
	elapsed := time.Since(start)

	statsMu.Lock()
	n := processed
	statsMu.Unlock()
	if n != *items {
		fmt.Fprintf(os.Stderr, "processed %d of %d items\n", n, *items)
		os.Exit(1)
	}
	fmt.Printf("processed %d items in %d ns\n", n, elapsed.Nanoseconds())
}
