package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"critlock/internal/instr"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

// plantedLock is the lock bench/pool plants, as the instrumenter names
// it.
const plantedLock = "main.statsMu"

// poolRun is one run of a pool binary.
type poolRun struct {
	wall   time.Duration // process start to exit
	body   time.Duration // the time the program reports for its workers
	items  int
	maxRSS float64 // MB
}

// runPool runs a pool binary to completion with extra environment,
// sampling its resident-set high-water mark every few milliseconds. The
// rusage a parent gets back would not do: the child is spawned sharing
// this process's address space until exec, so its maxrss counts this
// process's resident set too.
func runPool(bin string, items int, seed int64, extraEnv ...string) (poolRun, error) {
	cmd := exec.Command(bin, "-items", strconv.Itoa(items), "-seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), extraEnv...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return poolRun{}, err
	}
	var hwmKB int64
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			// VmHWM only grows; an exited child has none left to read.
			if kb, ok := vmHWM(cmd.Process.Pid); ok {
				hwmKB = kb
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	err := cmd.Wait()
	wall := time.Since(start)
	close(stop)
	<-polled
	if err != nil {
		return poolRun{}, fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, stderr.Bytes())
	}
	r := poolRun{wall: wall, maxRSS: float64(hwmKB) / 1e3}
	var bodyNS int64
	if _, err := fmt.Sscanf(stdout.String(), "processed %d items in %d ns", &r.items, &bodyNS); err != nil {
		return poolRun{}, fmt.Errorf("%s printed %q: %w", filepath.Base(bin), stdout.String(), err)
	}
	r.body = time.Duration(bodyNS)
	return r, nil
}

// vmHWM reads a live process's resident-set high-water mark, in kB.
func vmHWM(pid int) (int64, bool) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

// goBuild builds pkg in dir into out with the go command on PATH.
func goBuild(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s in %s: %w\n%s", pkg, dir, err, b)
	}
	return nil
}

// validSegdir reads a recorded segment directory back whole and
// validates it, returning the trace.
func validSegdir(dir string) (*trace.Trace, error) {
	r, err := segment.Open(dir)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	tr, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	if err := trace.Validate(tr); err != nil {
		return nil, fmt.Errorf("recorded trace does not validate: %w", err)
	}
	return tr, nil
}

// runClrtPool runs clrt_pool: bench/pool built as is and, through the
// instrumenter, onto the clrt runtime. Each iteration runs both as
// child processes, alternating which goes first, then analyzes the
// recording and runs the calibration kernel three times. primary_ms is
// the traced process's wall time, secondary_ms the `cla -hazards
// -segdir` sequence on its recording, peak_mb its maximum resident set.
func runClrtPool(e *env, traced bool) (*result, error) {
	res := &result{Workload: "clrt_pool", Traced: traced}
	var (
		plainBin, tracedBin  string
		setupS, genS, buildS []float64
	)
	for s := 0; s < e.size.setups; s++ {
		dir := filepath.Join(e.work, fmt.Sprintf("setup-%d", s))
		settle()
		start := time.Now()
		ir, err := instr.Run(instr.Options{
			Dir:         filepath.Join(e.root, "bench", "pool"),
			Out:         filepath.Join(dir, "instr"),
			CritlockDir: e.root,
		})
		if err != nil {
			return nil, err
		}
		if len(ir.Findings) > 0 || !ir.ChannelsOn {
			return nil, fmt.Errorf("instrumenting bench/pool: channels on %t, findings %+v", ir.ChannelsOn, ir.Findings)
		}
		gen := time.Since(start)
		plainBin, tracedBin = filepath.Join(dir, "pool-plain"), filepath.Join(dir, "pool-traced")
		if err := goBuild(filepath.Join(e.root, "bench"), plainBin, "./pool"); err != nil {
			return nil, err
		}
		if err := goBuild(filepath.Join(dir, "instr"), tracedBin, "."); err != nil {
			return nil, err
		}
		total := time.Since(start)
		setupS = append(setupS, secs(total))
		genS = append(genS, secs(gen))
		buildS = append(buildS, secs(total-gen))
	}

	runFor := e.seconds
	if traced {
		runFor = e.seconds * 6 / 10 // the rest sweeps the analysis layers
	}
	var (
		primary, secondary, rss, slowdown, nsPerEvent, flushS []float64
		plainMS, calib                                        []float64
		events                                                int
		kept                                                  string
	)
	settle()
	start := time.Now()
	for i := 0; i < warmup+minSamples || time.Since(start) < runFor; i++ {
		res.Attempted++
		segdir := filepath.Join(e.work, fmt.Sprintf("rec-%d", i))
		var plain, trc poolRun
		var errP, errT error
		runPlain := func() { plain, errP = runPool(plainBin, e.size.items, e.seed) }
		runTraced := func() {
			trc, errT = runPool(tracedBin, e.size.items, e.seed,
				"CRITLOCK_SEGDIR="+segdir, "CRITLOCK_QUIET=1", "CRITLOCK_SEED="+strconv.FormatInt(e.seed, 10))
		}
		if i%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
		if errP != nil || errT != nil {
			res.fail("iteration %d: plain: %v, traced: %v", i, errP, errT)
			continue
		}
		t0 := time.Now()
		an, _, _, err := segdirOp(segdir)
		analyzeDur := time.Since(t0)
		if err != nil {
			res.fail("iteration %d: %v", i, err)
			continue
		}
		tr, err := validSegdir(segdir)
		switch {
		case err != nil:
			res.fail("iteration %d: %v", i, err)
			continue
		case plain.items != e.size.items || trc.items != plain.items:
			res.fail("iteration %d: traced copy processed %d items, plain %d, want %d", i, trc.items, plain.items, e.size.items)
			continue
		case topLock(an) != plantedLock:
			res.fail("iteration %d: top lock %q, want %s", i, topLock(an), plantedLock)
			continue
		}
		if kept != "" {
			if err := os.RemoveAll(kept); err != nil {
				return nil, err
			}
		}
		kept = segdir
		events = len(tr.Events)
		calib = append(calib, calibrate(3)...)
		if i >= warmup {
			primary = append(primary, ms(trc.wall))
			secondary = append(secondary, ms(analyzeDur))
			rss = append(rss, trc.maxRSS)
			plainMS = append(plainMS, ms(plain.wall))
			slowdown = append(slowdown, float64(trc.wall)/float64(plain.wall))
			nsPerEvent = append(nsPerEvent, float64(trc.wall-plain.wall)/float64(events))
			flushS = append(flushS, secs((trc.wall-trc.body)-(plain.wall-plain.body)))
		}
	}

	if !traced {
		// The child's peak depends on where its GC cycles fall against the
		// trace merge at exit, so it spreads over a quarter of its median
		// from one iteration to the next; the median of all iterations
		// repeats across runs better than their highest does.
		res.add(
			summarize("setup_s", "s", setupS),
			relative("primary_rel", primary, calib),
			relative("secondary_rel", secondary, calib),
			summarize("peak_mb", "MB", rss),
			summarize("primary_ms", "ms", primary),
			summarize("secondary_ms", "ms", secondary),
			summarize("clrt_slowdown", "ratio", slowdown),
			summarize("plain_ms", "ms", plainMS),
			summarize("host.calib_ms", "ms", calib),
		)
		return res, nil
	}
	res.add(
		summarize("setup.gen_s", "s", genS),
		summarize("setup.prepare_s", "s", buildS),
		single("record.events", "count", float64(events)),
		summarize("record.ns_per_event", "ns", nsPerEvent),
		summarize("record.flush_s", "s", flushS),
	)
	if kept == "" {
		return res, nil
	}
	// The sweep reads the last recording, stored again both ways.
	tr, err := validSegdir(kept)
	if err != nil {
		return nil, err
	}
	in, segT, segBytes, err := storeTrace(e.work, "recorded", tr)
	if err != nil {
		return nil, err
	}
	in.expectTop = plantedLock
	res.add(single("segment.write_mb_s", "MB/s", float64(segBytes)/1e6/segT.Seconds()))
	return res, layerSweep(res, []traceInput{in}, e.seconds-time.Since(start), true)
}
