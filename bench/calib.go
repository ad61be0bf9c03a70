package main

import (
	"slices"
	"time"
)

// The bounded timings are relative: an operation's time over the time
// of a fixed calibration kernel, run in the same process during the
// same run. The shared host this benchmark was built on changes speed
// by up to 2× from one minute to the next, and every timing, the
// kernel's included, moves with it; their ratio moves far less (see
// README.md). The raw times print beside the ratios.

const calibN = 1 << 17

// The kernel's buffers, allocated once so that its runs allocate
// nothing and never wait on the collector.
var (
	calibXs   = make([]uint64, calibN)
	calibMap  = make(map[uint64]uint64, calibN/4)
	calibSink uint64
)

// calibKernel times one run of a fixed computation that touches no
// critlock code: fill a 128K-entry slice from a xorshift generator,
// fill a map from a quarter of it, sort the slice, and look every value
// up in the map. It hashes, sorts and misses cache as the analysis
// does, so it slows with the host as the analysis does. One run took
// 15 to 25 ms on a 2-vCPU Xeon VM, depending on the host's load.
func calibKernel() time.Duration {
	start := time.Now()
	xs := calibXs
	x := uint64(88172645463325252)
	for i := range xs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs[i] = x
	}
	clear(calibMap)
	for _, v := range xs[:calibN/4] {
		calibMap[v>>20] = v
	}
	slices.Sort(xs)
	var sum uint64
	for _, v := range xs {
		sum += calibMap[v>>20]
	}
	calibSink += sum
	return time.Since(start)
}

// calibrate runs the kernel reps times and returns each time in ms.
func calibrate(reps int) []float64 {
	out := make([]float64, reps)
	for i := range out {
		out[i] = ms(calibKernel())
	}
	return out
}

// relative reports the median of the times xs (ms) over the median
// kernel time in calib, with xs's quartiles on the same scale.
func relative(name string, xs, calib []float64) metric {
	m := summarize(name, "ratio", xs)
	c := median(calib)
	m.Value, m.P25, m.P75 = m.Value/c, m.P25/c, m.P75/c
	for i := range m.Samples {
		m.Samples[i] /= c
	}
	return m
}
