package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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
	status, raw2 := post(t, ts, "?segdir="+dir+"&window=3", nil)
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

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{MaxUploadBytes: 1 << 20})

	if status, _ := post(t, ts, "", nil); status != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", status)
	}
	if status, _ := post(t, ts, "?format=xml", []byte("x")); status != http.StatusBadRequest {
		t.Errorf("bad format = %d, want 400", status)
	}
	if status, _ := post(t, ts, "?window=-1", []byte("x")); status != http.StatusBadRequest {
		t.Errorf("bad window = %d, want 400", status)
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
	resp, err = http.Post(ts.URL+"/v1/hazards?segdir="+dir+"&par=4", "application/octet-stream", nil)
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
