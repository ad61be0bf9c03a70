// Package cliflags registers the flags every cla* command spells the
// same way, so the tools agree on names, defaults and usage text:
// -segdir (segmented trace directory), -spill (collector spill
// threshold), -j (parallel workers), -mmap and -tests.
// Commands register only the subset they support.
package cliflags

import (
	"flag"
	"runtime"
)

// SegDir registers -segdir: a segmented trace directory in the
// bounded-memory streaming format.
func SegDir(fs *flag.FlagSet) *string {
	return fs.String("segdir", "", "segmented trace directory (bounded-memory streaming format)")
}

// Spill registers -spill: the collector's per-thread buffered-event
// threshold beyond which events spill to segment run directories.
func Spill(fs *flag.FlagSet) *int {
	return fs.Int("spill", 0, "spill threshold in buffered events per thread (0 = off; requires -segdir)")
}

// Jobs registers -j: the parallel worker count for sweeps and fan-out.
func Jobs(fs *flag.FlagSet) *int {
	return fs.Int("j", runtime.NumCPU(), "parallel workers")
}

// Mmap registers -mmap: whether segment files are memory-mapped (the
// default) or read through buffers.
func Mmap(fs *flag.FlagSet) *bool {
	return fs.Bool("mmap", true, "memory-map segment files (disable for filesystems where mapping misbehaves)")
}

// Tests registers -tests: whether source-reading tools (clalint,
// clainstr) include _test.go files.
func Tests(fs *flag.FlagSet) *bool {
	return fs.Bool("tests", false, "include _test.go files")
}
