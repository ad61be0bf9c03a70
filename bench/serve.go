package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"critlock"
	"critlock/internal/serve"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// The serve_upload load: one process, at most serveConns load
// goroutines and connections, against an in-process server with as
// many analysis slots.
const (
	serveRate   = 200 // open-loop requests per second
	serveConns  = 2
	serveWarmup = 20 // requests sent, checked and not timed before the load
)

// poolModels are the paper's workload models the request pool is drawn
// from, each at 8, 16 and 24 threads.
var poolModels = []string{"radiosity", "raytrace", "waternsq", "ldap", "uts", "tsp", "volrend", "pipeline", "fanin"}

// upload is one request-pool trace, kept encoded so a request body
// costs a header splice rather than a re-encode: every fresh request
// carries its own "bench.request" meta value, so its content hash (the
// server's cache key) is new, while the analysis stays the pool trace's.
type upload struct {
	meta      map[string]string
	tail      []byte // the binary encoding after the meta section
	events    int
	expectTop string
}

// newUpload encodes tr for uploads whose analysis must rank expectTop
// first.
func newUpload(tr *trace.Trace, expectTop string) (*upload, error) {
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, &trace.Trace{Threads: tr.Threads, Objects: tr.Objects, Events: tr.Events}); err != nil {
		return nil, err
	}
	// "CLTR", version 1 and an empty meta section take six bytes.
	if !bytes.HasPrefix(buf.Bytes(), []byte("CLTR\x01\x00")) {
		return nil, fmt.Errorf("unexpected binary trace header % x", buf.Bytes()[:6])
	}
	return &upload{meta: tr.Meta, tail: buf.Bytes()[6:], events: len(tr.Events), expectTop: expectTop}, nil
}

// body is the binary trace with "bench.request" = stamp added to its
// metadata. The header is the encoding of the metadata alone minus its
// three empty counts (threads, objects, events).
func (u *upload) body(stamp string) ([]byte, error) {
	meta := make(map[string]string, len(u.meta)+1)
	for k, v := range u.meta {
		meta[k] = v
	}
	meta["bench.request"] = stamp
	var buf bytes.Buffer
	if err := trace.WriteBinary(&buf, &trace.Trace{Meta: meta}); err != nil {
		return nil, err
	}
	buf.Truncate(buf.Len() - 3)
	buf.Write(u.tail)
	return buf.Bytes(), nil
}

// checkReport checks a 200 response against the upload and returns the
// report's ID. It decodes only the leading fields, up to the lock table,
// and finds the trailing hazards section by its key: the client shares
// the server's two CPUs, so it must not spend a full decode per request.
func checkReport(raw []byte, u *upload, hazards bool) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return "", fmt.Errorf("report is not a JSON object")
	}
	var id string
	var locks []struct{ Name string }
	for gotLocks := false; id == "" || !gotLocks; {
		t, err := dec.Token()
		if err != nil || t == json.Delim('}') {
			return "", fmt.Errorf("report lacks an id or a lock table (%v)", err)
		}
		switch t {
		case "id":
			err = dec.Decode(&id)
		case "locks":
			err, gotLocks = dec.Decode(&locks), true
		default:
			err = dec.Decode(&json.RawMessage{})
		}
		if err != nil {
			return "", fmt.Errorf("decoding the report: %w", err)
		}
	}
	top := ""
	if len(locks) > 0 {
		top = locks[0].Name
	}
	switch {
	case top != u.expectTop:
		return "", fmt.Errorf("top lock %q, want %q", top, u.expectTop)
	case hazards != bytes.Contains(raw, []byte(`"hazards": {`)):
		return "", fmt.Errorf("hazards section present = %t, want %t", !hazards, hazards)
	}
	return id, nil
}

// serveDirect sends one upload straight to the server's ServeHTTP, with
// no network in between, and returns the handler time.
func serveDirect(srv *serve.Server, u *upload, stamp string, hazards bool) (time.Duration, error) {
	body, err := u.body(stamp)
	if err != nil {
		return 0, err
	}
	path := "/v1/analyze"
	if hazards {
		path = "/v1/hazards"
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	d := time.Since(start)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	_, err = checkReport(rec.Body.Bytes(), u, hazards)
	return d, err
}

// simPool simulates every pool model at 8, 16 and 24 threads, seeds
// traces each, with seeds drawn from the run's seed.
func simPool(seed int64, seeds int) ([]*trace.Trace, error) {
	var pool []*trace.Trace
	for s := 0; s < seeds; s++ {
		for _, name := range poolModels {
			spec, err := workloads.Get(name)
			if err != nil {
				return nil, err
			}
			for _, threads := range []int{8, 16, 24} {
				ws := seed*1000 + int64(s)
				tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 24, Seed: ws}), spec,
					workloads.Params{Threads: threads, Seed: ws})
				if err != nil {
					return nil, fmt.Errorf("simulating %s: %w", name, err)
				}
				pool = append(pool, tr)
			}
		}
	}
	return pool, nil
}

// request is one planned request: fresh uploads of a pool trace to
// /v1/analyze (80%) or /v1/hazards (10%), or an exact repeat of a
// recent fresh request (10%), which the report cache should answer.
type request struct {
	pool    int
	stamp   int // the request whose bytes this one sends (itself unless a repeat)
	hazards bool
}

func (q request) repeat(i int) bool { return q.stamp != i }

// planRequests draws n requests from the seed. A repeat refers to one
// of the 4th to 19th most recent fresh requests: old enough to have
// been answered under the open loop's spacing, recent enough to still
// be in the server's 64-report cache.
func planRequests(rng *rand.Rand, n, poolSize int) []request {
	plan := make([]request, n)
	var fresh []int
	for i := range plan {
		switch r := rng.Intn(10); {
		case r == 0 && len(fresh) >= 20:
			plan[i] = plan[fresh[len(fresh)-4-rng.Intn(16)]]
		default:
			plan[i] = request{pool: rng.Intn(poolSize), stamp: i, hazards: r == 1}
			fresh = append(fresh, i)
		}
	}
	return plan
}

// outcome is what one request did; latency is +Inf when it failed.
type outcome struct {
	latency float64 // ms, from its due time (open loop) or its send (closed loop)
	late    float64 // ms the send started after its due time (open loop)
	sendDur float64 // ms from send to the full response
	id      string
	err     error
}

// loadClient sends planned requests to one server.
type loadClient struct {
	url    string
	client *http.Client
	pool   []*upload
	plan   []request
	out    []outcome
}

// send performs request i and records its outcome, timing latency from
// due (the zero time means from the send).
func (c *loadClient) send(i int, due time.Time) {
	q := c.plan[i]
	o := &c.out[i]
	o.latency = math.Inf(1)
	u := c.pool[q.pool]
	body, err := u.body(strconv.Itoa(q.stamp))
	if err != nil {
		o.err = err
		return
	}
	path := "/v1/analyze"
	if q.hazards {
		path = "/v1/hazards"
	}
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Bench-Request", strconv.Itoa(i))
	sent := time.Now()
	if due.IsZero() {
		due = sent
	}
	resp, err := c.client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
		return
	}
	if o.id, o.err = checkReport(raw, u, q.hazards); o.err != nil {
		return
	}
	o.latency = ms(done.Sub(due))
	o.late = ms(sent.Sub(due))
	o.sendDur = ms(done.Sub(sent))
}

// openLoop sends requests first..first+n-1 at rate per second from
// serveConns goroutines, each due at its slot whether or not earlier
// ones have completed.
func (c *loadClient) openLoop(first, n int) {
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < serveConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * time.Second / serveRate)
				time.Sleep(time.Until(due))
				c.send(first+k, due)
			}
		}()
	}
	wg.Wait()
}

// closedLoop keeps serveConns requests in flight for d, starting at
// request first, and returns how many it sent and the time they took.
func (c *loadClient) closedLoop(first int, d time.Duration) (int, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < serveConns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				k := first + int(next.Add(1)-1)
				if k >= len(c.plan) {
					return
				}
				c.send(k, time.Time{})
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), len(c.plan)-first), time.Since(start)
}

// handlerTimes wraps the server to time every ServeHTTP call, keyed by
// the request number the load client sends.
type handlerTimes struct {
	h   http.Handler
	dur []atomic.Int64
}

func (t *handlerTimes) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	t.h.ServeHTTP(w, r)
	if i, err := strconv.Atoi(r.Header.Get("X-Bench-Request")); err == nil && i >= 0 && i < len(t.dur) {
		t.dur[i].Store(int64(time.Since(start)))
	}
}

// runServeUpload runs serve_upload: many small uploads of the paper's
// workload models to an in-process server. An open loop at serveRate
// requests per second (timed from each request's due time) is followed
// by a closed loop with serveConns requests always in flight.
// primary_ms and secondary_ms are the closed loop's median and 95th
// percentile latency. The calibration kernel runs before the load,
// between five slices of the closed loop, and after. The open loop's
// median and p99 print as
// serve_p50_ms and serve_p99_ms without a bound: across seeds they
// spread two to three times as wide as the closed loop's median.
func runServeUpload(e *env, traced bool) (*result, error) {
	res := &result{Workload: "serve_upload", Traced: traced}
	var (
		pool                                    []*upload
		traces                                  []*trace.Trace
		setupS, genS, prepS, flushS, nsPerEvent []float64
		events                                  int
	)
	for s := 0; s < e.size.setups; s++ {
		settle()
		start := time.Now()
		trs, err := simPool(e.seed, e.size.poolSeeds)
		if err != nil {
			return nil, err
		}
		gen := time.Since(start)
		ups, flush, err := encodePool(trs)
		if err != nil {
			return nil, err
		}
		total := time.Since(start)
		pool, traces = ups, trs
		events = 0
		for _, u := range ups {
			events += u.events
		}
		setupS = append(setupS, secs(total))
		genS = append(genS, secs(gen))
		prepS = append(prepS, secs(total-gen))
		flushS = append(flushS, secs(flush))
		nsPerEvent = append(nsPerEvent, float64(gen)/float64(events))
	}

	srv := serve.New(serve.Options{MaxConcurrent: serveConns})
	openFor := e.seconds * 4 / 10
	closedFor := e.seconds - openFor
	if traced {
		// The traced run also sweeps the analysis layers over the pool.
		openFor, closedFor = openFor*6/10, closedFor*6/10
	}
	n := serveWarmup + int(openFor.Seconds()*serveRate) + int(closedFor.Seconds()*2000) + 100
	c := &loadClient{
		pool: pool,
		plan: planRequests(rand.New(rand.NewSource(e.seed)), n, len(pool)),
		out:  make([]outcome, n),
	}
	var handler http.Handler = srv
	var ht *handlerTimes
	if traced {
		ht = &handlerTimes{h: srv, dur: make([]atomic.Int64, n)}
		handler = ht
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	transport := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	defer transport.CloseIdleConnections()
	c.url, c.client = ts.URL, &http.Client{Transport: transport, Timeout: time.Minute}

	settle()
	for i := 0; i < serveWarmup; i++ {
		c.send(i, time.Time{})
	}
	calib := calibrate(5)
	openN := int(openFor.Seconds() * serveRate)
	c.openLoop(serveWarmup, openN)
	closedFirst := serveWarmup + openN
	var closedN int
	var closedDur time.Duration
	for k := 0; k < 5; k++ {
		calib = append(calib, calibrate(3)...)
		n, d := c.closedLoop(closedFirst+closedN, closedFor/5)
		closedN, closedDur = closedN+n, closedDur+d
	}
	sent := closedFirst + closedN
	calib = append(calib, calibrate(5)...)

	var openLat, late, closedLat []float64
	okClosed := 0
	for i := 0; i < sent; i++ {
		o, q := c.out[i], c.plan[i]
		res.Attempted++
		if o.err == nil && q.repeat(i) && o.id != c.out[q.stamp].id {
			o.err = fmt.Errorf("repeat of request %d answered with report %s, want %s", q.stamp, o.id, c.out[q.stamp].id)
			o.latency = math.Inf(1)
		}
		if o.err != nil {
			res.fail("request %d: %v", i, o.err)
		}
		switch {
		case i < serveWarmup:
		case i < closedFirst:
			openLat = append(openLat, o.latency)
			if o.err == nil {
				late = append(late, o.late)
			}
		default:
			closedLat = append(closedLat, o.latency)
			if o.err == nil {
				okClosed++
			}
		}
	}

	if !traced {
		// Peak heap per hazards request, over the 27 largest uploads: the
		// peaks of the 9 largest alone spread over a quarter of their
		// median, which then moved with the seed.
		bySize := slices.Clone(pool)
		slices.SortFunc(bySize, func(a, b *upload) int { return b.events - a.events })
		var peaks []float64
		for i, u := range bySize[:min(len(bySize), 3*len(poolModels))] {
			var err error
			peaks = append(peaks, peakHeapMB(func() {
				_, err = serveDirect(srv, u, fmt.Sprintf("peak-%d", i), true)
			}))
			if err != nil {
				return nil, fmt.Errorf("peak-heap request: %w", err)
			}
		}
		res.add(
			summarize("setup_s", "s", setupS),
			relative("primary_rel", closedLat, calib),
			single("secondary_rel", "ratio", p95(closedLat)/median(calib)),
			summarize("peak_mb", "MB", peaks),
			summarize("primary_ms", "ms", closedLat),
			single("secondary_ms", "ms", p95(closedLat)),
			summarize("serve_p50_ms", "ms", openLat),
			single("serve_p99_ms", "ms", p99(openLat)),
			summarize("host.calib_ms", "ms", calib),
			single("serve_capacity_rps", "1/s", float64(okClosed)/closedDur.Seconds()),
			single("loadgen.late_ms_p99", "ms", p99(late)),
		)
		return res, nil
	}

	var handlerMS, waitMS []float64
	for i := serveWarmup; i < sent; i++ {
		o := c.out[i]
		if d := ht.dur[i].Load(); d > 0 && o.err == nil {
			handlerMS = append(handlerMS, ms(time.Duration(d)))
			waitMS = append(waitMS, o.sendDur-ms(time.Duration(d)))
		}
	}
	prom, err := scrapeMetrics(c)
	if err != nil {
		return nil, err
	}
	posts := float64(sent)
	res.add(
		summarize("setup.gen_s", "s", genS),
		summarize("setup.prepare_s", "s", prepS),
		single("record.events", "count", float64(events)),
		summarize("record.ns_per_event", "ns", nsPerEvent),
		summarize("record.flush_s", "s", flushS),
		summarize("serve.handler_ms_p50", "ms", handlerMS),
		single("serve.handler_ms_p99", "ms", p99(handlerMS)),
		single("serve.wait_ms_p99", "ms", p99(waitMS)),
		single("serve.cache_hit_ratio", "ratio", prom["critlock_server_cache_hits_total"]/posts),
		single("serve.posts", "count", posts),
		single("loadgen.late_ms_p99", "ms", p99(late)),
	)
	var phases []string
	for key := range prom {
		if phase, ok := strings.CutPrefix(key, `critlock_phase_seconds_sum{phase="`); ok {
			phases = append(phases, strings.TrimSuffix(phase, `"}`))
		}
	}
	slices.Sort(phases)
	for _, phase := range phases {
		res.add(single("serve.phase_s."+phase, "s", prom[`critlock_phase_seconds_sum{phase="`+phase+`"}`]))
	}

	// The sweep needs the pool stored as segment directories and files.
	dir := filepath.Join(e.work, "pool")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var inputs []traceInput
	var segBytes int64
	var segTime time.Duration
	for i, tr := range traces {
		in, st, b, err := storeTrace(dir, fmt.Sprintf("pool-%03d", i), tr)
		if err != nil {
			return nil, err
		}
		in.expectTop = pool[i].expectTop
		inputs = append(inputs, in)
		segBytes += b
		segTime += st
	}
	res.add(single("segment.write_mb_s", "MB/s", float64(segBytes)/1e6/segTime.Seconds()))
	return res, layerSweep(res, inputs, e.seconds*4/10, false)
}

// encodePool prepares the uploads: each trace's analysis (for the
// expected top lock) and its encoding, whose time it returns.
func encodePool(trs []*trace.Trace) ([]*upload, time.Duration, error) {
	var ups []*upload
	var encode time.Duration
	for _, tr := range trs {
		an, err := critlock.Analyze(critlock.TraceSource(tr))
		if err != nil {
			return nil, 0, fmt.Errorf("analyzing a pool trace: %w", err)
		}
		start := time.Now()
		u, err := newUpload(tr, topLock(an))
		if err != nil {
			return nil, 0, err
		}
		encode += time.Since(start)
		ups = append(ups, u)
	}
	return ups, encode, nil
}

// scrapeMetrics reads the server's own /metrics: every unlabelled or
// labelled sample line, keyed by everything before the value.
func scrapeMetrics(c *loadClient) (map[string]float64, error) {
	resp, err := c.client.Get(c.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		key, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[key] = v
		}
	}
	return out, nil
}
