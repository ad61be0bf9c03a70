package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"critlock"
	"critlock/internal/segment"
	"critlock/internal/serve"
	"critlock/internal/trace"
)

// microTrace builds the deterministic micro-benchmark trace every test
// uploads.
func microTrace(t *testing.T) *critlock.Trace {
	t.Helper()
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "micro", critlock.WorkloadParams{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatalf("running micro: %v", err)
	}
	return tr
}

func traceBytes(t *testing.T, tr *critlock.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := critlock.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.New(opts)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// post uploads body to /v1/analyze and returns status + raw response.
func post(t *testing.T, ts *httptest.Server, query string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/analyze"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func decodeReport(t *testing.T, raw []byte) serve.Report {
	t.Helper()
	var rep serve.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("decoding report: %v\n%s", err, raw)
	}
	return rep
}

// counter reads one nil-label counter from the server's registry.
func counter(t *testing.T, srv *serve.Server, name string) int64 {
	t.Helper()
	v, ok := srv.Registry().Snapshot()[name]
	if !ok {
		t.Fatalf("metric %s not registered", name)
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("metric %s is %T, want int64", name, v)
	}
	return n
}

func TestUploadAnalyzeReport(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{})
	body := traceBytes(t, microTrace(t))

	status, raw := post(t, ts, "", body)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/analyze = %d, want 200\n%s", status, raw)
	}
	rep := decodeReport(t, raw)
	if rep.ID == "" || rep.Source != "trace" || rep.Streamed {
		t.Errorf("report header = ID %q Source %q Streamed %v", rep.ID, rep.Source, rep.Streamed)
	}
	if rep.Summary.CPLength <= 0 || rep.Summary.Coverage <= 0 {
		t.Errorf("empty summary: %+v", rep.Summary)
	}
	if rep.Totals.Threads == 0 || len(rep.Locks) == 0 || len(rep.Threads) != rep.Totals.Threads {
		t.Errorf("totals/locks/threads wrong: %d threads, %d locks, %d thread rows",
			rep.Totals.Threads, len(rep.Locks), len(rep.Threads))
	}
	if len(rep.Timeline) == 0 || len(rep.Jumps) != rep.Summary.Jumps {
		t.Errorf("timeline %d pieces / %d jumps, summary says %d jumps",
			len(rep.Timeline), len(rep.Jumps), rep.Summary.Jumps)
	}

	// The same body again is a cache hit with the identical report.
	status2, raw2 := post(t, ts, "", body)
	if status2 != http.StatusOK || !bytes.Equal(raw, raw2) {
		t.Errorf("re-upload: status %d, identical=%v", status2, bytes.Equal(raw, raw2))
	}
	if hits := counter(t, srv, "critlock_server_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
	// Different options are a different cache entry, not a hit.
	status3, raw3 := post(t, ts, "?clip=false", body)
	if status3 != http.StatusOK {
		t.Fatalf("POST ?clip=false = %d", status3)
	}
	if rep3 := decodeReport(t, raw3); rep3.ID == rep.ID {
		t.Errorf("clip=false reused cache key %s", rep.ID)
	}
	if hits := counter(t, srv, "critlock_server_cache_hits_total"); hits != 1 {
		t.Errorf("cache hits after option change = %d, want still 1", hits)
	}

	// The report is retrievable by ID and listed.
	status4, raw4 := get(t, ts, "/v1/reports/"+rep.ID)
	if status4 != http.StatusOK || !bytes.Equal(raw4, raw) {
		t.Errorf("GET /v1/reports/%s: status %d, identical=%v", rep.ID, status4, bytes.Equal(raw4, raw))
	}
	if status, raw := get(t, ts, "/v1/reports"); status != http.StatusOK || !bytes.Contains(raw, []byte(rep.ID)) {
		t.Errorf("GET /v1/reports = %d, lists id=%v", status, bytes.Contains(raw, []byte(rep.ID)))
	}
	if status, _ := get(t, ts, "/v1/reports/nope"); status != http.StatusNotFound {
		t.Errorf("GET unknown report = %d, want 404", status)
	}
}

// TestSegdirMatchesUpload is the serving-layer differential oracle: a
// segment-directory analysis must serve the same numbers as uploading
// the raw trace, differing only in the header fields that describe the
// source.
func TestSegdirMatchesUpload(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	tr := microTrace(t)

	_, raw := post(t, ts, "", traceBytes(t, tr))
	fromBody := decodeReport(t, raw)

	dir := t.TempDir()
	if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 64}); err != nil {
		t.Fatal(err)
	}
	status, raw2 := post(t, ts, "?segdir="+dir, nil)
	if status != http.StatusOK {
		t.Fatalf("POST ?segdir = %d\n%s", status, raw2)
	}
	fromDir := decodeReport(t, raw2)

	if !fromDir.Streamed || !strings.HasPrefix(fromDir.Source, "segments:") {
		t.Errorf("segdir report header: Streamed %v Source %q", fromDir.Streamed, fromDir.Source)
	}
	if !reflect.DeepEqual(fromBody.Summary, fromDir.Summary) {
		t.Errorf("summaries differ:\nbody %+v\ndir  %+v", fromBody.Summary, fromDir.Summary)
	}
	if !reflect.DeepEqual(fromBody.Totals, fromDir.Totals) {
		t.Errorf("totals differ")
	}
	if !reflect.DeepEqual(fromBody.Locks, fromDir.Locks) {
		t.Errorf("lock stats differ")
	}
	if !reflect.DeepEqual(fromBody.Threads, fromDir.Threads) {
		t.Errorf("thread stats differ")
	}
	if !reflect.DeepEqual(fromBody.Timeline, fromDir.Timeline) {
		t.Errorf("timelines differ")
	}
	if !reflect.DeepEqual(fromBody.Jumps, fromDir.Jumps) {
		t.Errorf("jumps differ")
	}
}

// TestObservability: one upload shows in /metrics as the analysis
// phases plus the server's own decode and report phases.
func TestObservability(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	post(t, ts, "", traceBytes(t, microTrace(t)))

	status, raw := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	metrics := string(raw)
	for _, want := range []string{
		"# TYPE critlock_phase_seconds histogram",
		`critlock_phase_seconds_count{phase="walk"}`,
		`critlock_phase_seconds_count{phase="decode"} 1`,
		`critlock_phase_seconds_count{phase="report"} 1`,
		"critlock_analysis_events_total",
		"critlock_server_requests_total",
		"critlock_server_active_analyses 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	if status, raw := get(t, ts, "/healthz"); status != http.StatusOK || string(raw) != "ok\n" {
		t.Errorf("/healthz = %d %q", status, raw)
	}

	status, raw = get(t, ts, "/debug/progress")
	if status != http.StatusOK {
		t.Fatalf("GET /debug/progress = %d", status)
	}
	var prog struct {
		Runs []map[string]any `json:"runs"`
	}
	if err := json.Unmarshal(raw, &prog); err != nil {
		t.Fatalf("decoding progress: %v\n%s", err, raw)
	}
	if len(prog.Runs) == 0 {
		t.Errorf("/debug/progress shows no runs after an analysis")
	}
}

// TestSizingKeysIgnored: ?par=, ?window=, ?mmap= and ?annbudget= are
// ignored keys whatever their value, since the analysis sizes its
// pass-3 ranges and walk window itself, and the server's own options
// set how segment files are read and the annotation budget. A request
// carrying them, upload or segment directory, is served as it is
// without them, under the same report ID.
func TestSizingKeysIgnored(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	tr := microTrace(t)
	body := traceBytes(t, tr)
	dir := t.TempDir()
	if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 64}); err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		query string
		body  []byte
	}{{"", body}, {"?segdir=" + dir, nil}} {
		_, raw := post(t, ts, in.query, in.body)
		want := decodeReport(t, raw)
		sep := "&"
		if in.query == "" {
			sep = "?"
		}
		for _, keys := range []string{"par=x&window=-1", "mmap=false&annbudget=-1", "mmap=maybe&annbudget=lots"} {
			q := in.query + sep + keys
			status, raw2 := post(t, ts, q, in.body)
			if status != http.StatusOK {
				t.Fatalf("POST %s = %d, want 200\n%s", q, status, raw2)
			}
			if got := decodeReport(t, raw2); got.ID != want.ID {
				t.Errorf("report ID %s with %s, %s without", got.ID, q, want.ID)
			}
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{MaxUploadBytes: 1 << 20})

	if status, _ := post(t, ts, "", nil); status != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", status)
	}
	// ?format= is an ignored key: the body's bytes decide, and a
	// stream-format header is no trace.
	if status, _ := post(t, ts, "?format=stream", []byte("CLTS\x01")); status != http.StatusUnprocessableEntity {
		t.Errorf("CLTS-magic body = %d, want 422", status)
	}
	if status, _ := post(t, ts, "?clip=maybe", []byte("x")); status != http.StatusBadRequest {
		t.Errorf("bad clip = %d, want 400", status)
	}
	if status, _ := post(t, ts, "", []byte("not a trace")); status != http.StatusUnprocessableEntity {
		t.Errorf("garbage trace = %d, want 422", status)
	}
	if status, _ := post(t, ts, "?segdir="+t.TempDir(), nil); status != http.StatusNotFound {
		t.Errorf("segdir without manifest = %d, want 404", status)
	}
	if status, _ := post(t, ts, "", bytes.Repeat([]byte("A"), 2<<20)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload = %d, want 413", status)
	}

	// A truncated binary trace reports 422 through the typed error set.
	body := traceBytes(t, microTrace(t))
	if status, _ := post(t, ts, "", body[:len(body)-7]); status != http.StatusUnprocessableEntity {
		t.Errorf("truncated trace = %d, want 422", status)
	}
	if status, _ := post(t, ts, "", []byte("CL")); status != http.StatusUnprocessableEntity {
		t.Errorf("trace cut inside the magic = %d, want 422", status)
	}
}

// TestUploadContentLengthUntrusted: the upload buffer is sized from
// Content-Length, but a header that claims far more than the body (or
// less) only changes the reservation: the report is the one a truthful
// upload gets.
func TestUploadContentLengthUntrusted(t *testing.T) {
	srv, ts := newTestServer(t, serve.Options{MaxUploadBytes: 1 << 20})
	body := traceBytes(t, microTrace(t))
	_, raw := post(t, ts, "", body)
	want := decodeReport(t, raw).ID
	for _, claim := range []int64{1 << 40, 10, -1} {
		req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body))
		req.ContentLength = claim
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("Content-Length %d: status %d\n%s", claim, rec.Code, rec.Body.Bytes())
		}
		if got := decodeReport(t, rec.Body.Bytes()).ID; got != want {
			t.Errorf("Content-Length %d: report %s, want %s", claim, got, want)
		}
	}
}

// TestUnknownEncodingRejected: a body that is neither a binary nor a
// JSON trace — a retired stream-format header, or plain garbage — gets
// 422 on both analysis endpoints, with an error naming the two
// encodings the server accepts.
func TestUnknownEncodingRejected(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	for name, body := range map[string][]byte{
		"CLTS magic": []byte("CLTS\x01\x05"),
		"garbage":    []byte("not a trace"),
	} {
		for _, endpoint := range []string{"/v1/analyze", "/v1/hazards"} {
			resp, err := http.Post(ts.URL+endpoint, "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var msg struct{ Error string }
			err = json.NewDecoder(resp.Body).Decode(&msg)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: decoding error body: %v", name, endpoint, err)
			}
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Errorf("%s %s = %d, want 422", name, endpoint, resp.StatusCode)
			}
			if !strings.Contains(msg.Error, "binary trace") || !strings.Contains(msg.Error, "JSON trace") {
				t.Errorf("%s %s: error %q does not name both accepted encodings", name, endpoint, msg.Error)
			}
		}
	}
}

// TestUploadEncodingsAgree: a JSON upload is recognized from its bytes
// and analyzes like the binary upload of the same trace. ?format= is an
// ignored key: a JSON body sent with ?format=json keeps its cache ID,
// and a binary body sent with ?format=stream is still read as binary.
func TestUploadEncodingsAgree(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	tr := microTrace(t)
	var js bytes.Buffer
	if err := critlock.WriteTraceJSON(&js, tr); err != nil {
		t.Fatal(err)
	}
	report := func(query string, body []byte) serve.Report {
		t.Helper()
		status, raw := post(t, ts, query, body)
		if status != http.StatusOK {
			t.Fatalf("POST %q = %d\n%s", query, status, raw)
		}
		return decodeReport(t, raw)
	}
	fromBinary := report("", traceBytes(t, tr))
	fromJSON := report("", js.Bytes())
	if flagged := report("?format=json", js.Bytes()); flagged.ID != fromJSON.ID {
		t.Errorf("?format=json changed the cache ID: %s vs %s", flagged.ID, fromJSON.ID)
	}
	if ignored := report("?format=stream", traceBytes(t, tr)); ignored.ID != fromBinary.ID {
		t.Errorf("?format=stream changed the cache ID: %s vs %s", ignored.ID, fromBinary.ID)
	}
	fromJSON.ID = fromBinary.ID
	if !reflect.DeepEqual(fromBinary, fromJSON) {
		t.Errorf("JSON upload analyzed differently from the binary one")
	}
}

// TestAdmissionBound: rounds of MaxConcurrent+1 concurrent /v1/hazards
// uploads of distinct traces all complete with 200, and the server's
// gauge of analyses holding a slot, polled throughout, never exceeds
// MaxConcurrent.
func TestAdmissionBound(t *testing.T) {
	const maxConcurrent, rounds = 1, 3
	srv, ts := newTestServer(t, serve.Options{MaxConcurrent: maxConcurrent})
	// One trace of ~86K events: long enough an analysis for the poll to
	// see, made distinct per upload by a meta key so none is a cache
	// hit.
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 24, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "uts", critlock.WorkloadParams{Threads: 24, Seed: 1})
	if err != nil {
		t.Fatalf("running uts: %v", err)
	}

	stop := make(chan struct{})
	peak := make(chan int64)
	go func() {
		var most int64
		for {
			select {
			case <-stop:
				peak <- most
				return
			default:
				most = max(most, srv.Registry().Snapshot()["critlock_server_active_analyses"].(int64))
			}
		}
	}()
	for round := range rounds {
		var wg sync.WaitGroup
		for i := range maxConcurrent + 1 {
			tr.Meta["upload"] = fmt.Sprint(round, "/", i)
			body := traceBytes(t, tr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/hazards", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("round %d upload %d = %d, want 200", round, i, resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	close(stop)
	switch observed := <-peak; {
	case observed > maxConcurrent:
		t.Errorf("peak analyses in flight = %d, want at most MaxConcurrent = %d", observed, maxConcurrent)
	case observed == 0:
		t.Error("the active-analyses gauge never showed a run in flight")
	}
}

// TestHazardsEndpoint: /v1/hazards is /v1/analyze plus the dynamic
// hazard section, with its own cache key, over both upload and segdir
// inputs.
func TestHazardsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "deadlockprone", critlock.WorkloadParams{Seed: 1})
	if err != nil {
		t.Fatalf("running deadlockprone: %v", err)
	}
	body := traceBytes(t, tr)

	resp, err := http.Post(ts.URL+"/v1/hazards", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/hazards = %d\n%s", resp.StatusCode, raw)
	}
	rep := decodeReport(t, raw)
	if rep.Hazards == nil {
		t.Fatal("/v1/hazards report has no hazards section")
	}
	if len(rep.Hazards.Cycles) != 1 {
		t.Errorf("deadlockprone cycles = %d, want 1", len(rep.Hazards.Cycles))
	}
	if rep.Summary.CPLength <= 0 {
		t.Errorf("hazards report lost the analysis summary: %+v", rep.Summary)
	}

	// Plain /v1/analyze of the same body: no hazards, distinct cache key.
	_, raw2 := post(t, ts, "", body)
	plain := decodeReport(t, raw2)
	if plain.Hazards != nil {
		t.Error("/v1/analyze report unexpectedly has a hazards section")
	}
	if plain.ID == rep.ID {
		t.Errorf("/v1/analyze and /v1/hazards share cache key %s", rep.ID)
	}

	// Segdir input serves the identical hazard section.
	dir := t.TempDir()
	if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 64}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/hazards?segdir="+dir, "application/octet-stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw3, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/hazards?segdir = %d\n%s", resp.StatusCode, raw3)
	}
	fromDir := decodeReport(t, raw3)
	if fromDir.Hazards == nil {
		t.Fatal("segdir hazards report has no hazards section")
	}
	a, _ := json.Marshal(rep.Hazards)
	b, _ := json.Marshal(fromDir.Hazards)
	if !bytes.Equal(a, b) {
		t.Errorf("segdir hazard section differs from upload:\n%s\n%s", a, b)
	}
}

// TestHazardPhaseObserved: the hazard pass runs inside the analysis
// slot and reports to the run's observer, so /metrics counts one
// "hazard" phase after one /v1/hazards POST and none after a plain
// /v1/analyze.
func TestHazardPhaseObserved(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	body := traceBytes(t, microTrace(t))
	metrics := func() string {
		t.Helper()
		status, raw := get(t, ts, "/metrics")
		if status != http.StatusOK {
			t.Fatalf("GET /metrics = %d", status)
		}
		return string(raw)
	}

	if status, raw := post(t, ts, "", body); status != http.StatusOK {
		t.Fatalf("POST /v1/analyze = %d\n%s", status, raw)
	}
	if m := metrics(); strings.Contains(m, `phase="hazard"`) {
		t.Errorf("/metrics has a hazard phase after /v1/analyze only")
	}

	resp, err := http.Post(ts.URL+"/v1/hazards", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/hazards = %d\n%s", resp.StatusCode, raw)
	}
	if want := `critlock_phase_seconds_count{phase="hazard"} 1`; !strings.Contains(metrics(), want) {
		t.Errorf("/metrics missing %q after one /v1/hazards POST", want)
	}
}

func TestReportCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{CacheReports: 1})
	body := traceBytes(t, microTrace(t))

	_, raw := post(t, ts, "", body)
	first := decodeReport(t, raw)
	_, raw2 := post(t, ts, "?clip=false", body)
	second := decodeReport(t, raw2)

	if status, _ := get(t, ts, "/v1/reports/"+first.ID); status != http.StatusNotFound {
		t.Errorf("evicted report still served: %d", status)
	}
	if status, _ := get(t, ts, "/v1/reports/"+second.ID); status != http.StatusOK {
		t.Errorf("latest report not served: %d", status)
	}
}

// TestMalformedUploadsRejected: binary uploads that decode but break the
// trace's structure — events swapped between threads or retyped — must
// get 422 and leave the server up. Uploads always validate, so a
// ?validate=0 query is ignored rather than letting such a trace reach
// the passes.
func TestMalformedUploadsRejected(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	sim := critlock.NewSimulator(critlock.SimConfig{Contexts: 8, Seed: 1})
	tr, _, err := critlock.RunWorkload(sim, "pipeline", critlock.WorkloadParams{Threads: 4, Seed: 1})
	if err != nil {
		t.Fatalf("running pipeline: %v", err)
	}
	mutants := map[string]func(evs []critlock.Event){
		"swap threads": func(evs []critlock.Event) {
			for i := 1; i < len(evs); i++ {
				if evs[i].Thread != evs[i-1].Thread {
					evs[i].Thread, evs[i-1].Thread = evs[i-1].Thread, evs[i].Thread
					return
				}
			}
		},
		"swap events": func(evs []critlock.Event) {
			mid := len(evs) / 2
			evs[mid].Kind, evs[mid+1].Kind = evs[mid+1].Kind, evs[mid].Kind
			evs[mid].Thread, evs[mid+1].Thread = evs[mid+1].Thread, evs[mid].Thread
		},
		"retype recv": func(evs []critlock.Event) {
			for i := range evs {
				if evs[i].Kind == trace.EvChanRecv {
					evs[i].Kind = trace.EvChanSend
					return
				}
			}
		},
		"retype create as send": func(evs []critlock.Event) {
			for i := range evs {
				if evs[i].Kind == trace.EvThreadCreate {
					evs[i].Kind = trace.EvChanSend
					return
				}
			}
		},
		"retype last event": func(evs []critlock.Event) {
			evs[len(evs)-1].Kind = trace.EvLockRelease
		},
	}
	for name, mutate := range mutants {
		mut := *tr
		mut.Events = append([]critlock.Event(nil), tr.Events...)
		mutate(mut.Events)
		if critlock.ValidateTrace(&mut) == nil {
			t.Fatalf("%s: mutant still validates", name)
		}
		if status, raw := post(t, ts, "?validate=0", traceBytes(t, &mut)); status != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422\n%s", name, status, raw)
		}
	}
	if status, raw := get(t, ts, "/healthz"); status != http.StatusOK || string(raw) != "ok\n" {
		t.Errorf("/healthz after malformed uploads = %d %q", status, raw)
	}
}

// TestErrorTexts: what a client reads for an upload that does not
// decode, a segment directory that does not open, and one whose
// segment data is corrupt.
func TestErrorTexts(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	tr := microTrace(t)
	body := traceBytes(t, tr)
	errorOf := func(query string, body []byte) (int, string) {
		t.Helper()
		status, raw := post(t, ts, query, body)
		var msg struct{ Error string }
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatalf("POST %q: %v\n%s", query, err, raw)
		}
		return status, msg.Error
	}

	if status, msg := errorOf("", body[:len(body)-7]); status != http.StatusUnprocessableEntity ||
		!strings.HasPrefix(msg, "decoding trace: trace: ") || !strings.Contains(msg, "truncated") {
		t.Errorf("truncated upload = %d %q", status, msg)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segment.ManifestName), []byte("{not a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, msg := errorOf("?segdir="+dir, nil); status != http.StatusInternalServerError ||
		!strings.HasPrefix(msg, "opening "+dir+": ") {
		t.Errorf("bad manifest = %d %q", status, msg)
	}

	segs := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(segs, tr, segment.Options{SegmentEvents: 64}); err != nil {
		t.Fatal(err)
	}
	rdr, err := segment.Open(segs)
	if err != nil {
		t.Fatal(err)
	}
	seg0 := filepath.Join(segs, rdr.Segment(0).Name)
	rdr.Close()
	img, err := os.ReadFile(seg0)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0xff
	if err := os.WriteFile(seg0, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if status, msg := errorOf("?segdir="+segs, nil); status != http.StatusUnprocessableEntity ||
		msg != "segment: body checksum mismatch" {
		t.Errorf("corrupt segment = %d %q", status, msg)
	}
}
