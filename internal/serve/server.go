// Package serve is the analysis-as-a-service layer: an HTTP server
// that ingests traces (request bodies in any of the trace formats, or
// server-local segment directories), runs critical lock analysis
// under a concurrency budget, caches reports by content hash, and
// exposes its own behavior through internal/obs — Prometheus-text
// /metrics with per-phase histograms, /debug/progress with live run
// snapshots, and expvar.
//
// Endpoints:
//
//	POST /v1/analyze          analyze the request body (?format=binary|json|stream)
//	POST /v1/analyze?segdir=D analyze a server-local segment directory
//	POST /v1/hazards          analyze + dynamic hazard prediction (same inputs/knobs)
//	GET  /v1/reports          list cached report IDs
//	GET  /v1/reports/{id}     fetch a cached report
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             liveness probe
//	GET  /debug/progress      live + recent analysis runs
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/obs"
	"critlock/internal/segment"
	"critlock/internal/trace"
)

// Options configures a Server. The zero value serves with the
// defaults noted on each field.
type Options struct {
	// MaxConcurrent bounds simultaneously running analyses; further
	// requests wait for a slot (or their timeout). 0 = 4.
	MaxConcurrent int
	// MaxUploadBytes caps an uploaded trace body. 0 = 256 MiB.
	MaxUploadBytes int64
	// Timeout bounds one analyze request, queueing included. 0 = 60s.
	Timeout time.Duration
	// TmpDir hosts streaming spill files ("" = os.TempDir).
	TmpDir string
	// Window is the default streaming walk residency for segment-dir
	// analyses, overridable per request (?window=N). 0 = core default.
	Window int
	// ParallelSegments is the default worker count for the streaming
	// forward passes, overridable per request (?par=N). 0 or 1 =
	// sequential; results are identical at any setting.
	ParallelSegments int
	// NoMmap disables memory-mapping segment files by default,
	// overridable per request (?mmap=BOOL).
	NoMmap bool
	// AnnotationBudget is the default resident waker-annotation ceiling
	// in bytes, overridable per request (?annbudget=N). 0 = core
	// default, negative = always spill.
	AnnotationBudget int64
	// CacheReports caps retained reports (FIFO eviction). 0 = 64.
	CacheReports int
}

func (o *Options) fill() {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.MaxUploadBytes <= 0 {
		o.MaxUploadBytes = 256 << 20
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.CacheReports <= 0 {
		o.CacheReports = 64
	}
}

// Server is the analysis HTTP service. It implements http.Handler;
// wrap it in an http.Server (or httptest.Server) to listen.
type Server struct {
	opts    Options
	mux     *http.ServeMux
	reg     *obs.Registry
	ins     *obs.Instruments
	tracker *obs.Tracker
	sem     chan struct{}

	requests  *obs.Counter
	cacheHits *obs.Counter
	active    *obs.Gauge

	mu      sync.Mutex
	reports map[string]*Report
	order   []string // insertion order, for FIFO eviction
}

// New returns a ready Server. Its metric registry is also published to
// expvar under "critlock" (first server wins; later ones still serve
// their own /metrics).
func New(opts Options) *Server {
	opts.fill()
	reg := obs.NewRegistry()
	s := &Server{
		opts:    opts,
		mux:     http.NewServeMux(),
		reg:     reg,
		ins:     obs.NewInstruments(reg),
		tracker: obs.NewTracker(),
		sem:     make(chan struct{}, opts.MaxConcurrent),
		reports: map[string]*Report{},

		requests:  reg.Counter("critlock_server_requests_total", "HTTP requests served.", nil),
		cacheHits: reg.Counter("critlock_server_cache_hits_total", "Analyses answered from the report cache.", nil),
		active:    reg.Gauge("critlock_server_active_analyses", "Analyses currently running.", nil),
	}
	reg.PublishExpvar("critlock")

	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/hazards", s.handleHazards)
	s.mux.HandleFunc("GET /v1/reports", s.handleReportList)
	s.mux.HandleFunc("GET /v1/reports/{id}", s.handleReportGet)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/progress", s.handleProgress)
	return s
}

// Registry exposes the server's metric registry (for embedding hosts
// that want to add their own instruments).
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// httpError is an error with a dedicated HTTP status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func httpErrorf(status int, format string, args ...any) error {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		status = he.status
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, trace.ErrTruncated), errors.Is(err, trace.ErrChecksum),
		errors.Is(err, trace.ErrEmptyTrace), errors.As(err, new(*trace.ValidationError)):
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// analyzeParams are the per-request knobs, parsed from the query.
type analyzeParams struct {
	format      string // binary | json | stream (body uploads)
	segdir      string // server-local segment directory
	window      int
	par         int
	mmap        bool
	annBudget   int64
	composition bool
	clip        bool
	// hazards runs the dynamic hazard pass and attaches its report
	// (set by the /v1/hazards endpoint, not a query knob).
	hazards bool
}

func parseParams(r *http.Request, defaults Options) (analyzeParams, error) {
	q := r.URL.Query()
	p := analyzeParams{
		format:    "binary",
		segdir:    q.Get("segdir"),
		window:    defaults.Window,
		par:       defaults.ParallelSegments,
		mmap:      !defaults.NoMmap,
		annBudget: defaults.AnnotationBudget,
		clip:      true,
	}
	if f := q.Get("format"); f != "" {
		switch f {
		case "binary", "json", "stream":
			p.format = f
		default:
			return p, httpErrorf(http.StatusBadRequest, "unknown format %q (want binary, json or stream)", f)
		}
	}
	boolParam := func(name string, dst *bool) error {
		if v := q.Get(name); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				return httpErrorf(http.StatusBadRequest, "bad %s=%q: want a boolean", name, v)
			}
			*dst = b
		}
		return nil
	}
	if v := q.Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, httpErrorf(http.StatusBadRequest, "bad window=%q: want a non-negative integer", v)
		}
		p.window = n
	}
	if v := q.Get("par"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, httpErrorf(http.StatusUnprocessableEntity, "bad par=%q: want a non-negative integer", v)
		}
		p.par = n
	}
	if v := q.Get("mmap"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, httpErrorf(http.StatusUnprocessableEntity, "bad mmap=%q: want a boolean", v)
		}
		p.mmap = b
	}
	if v := q.Get("annbudget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return p, httpErrorf(http.StatusUnprocessableEntity, "bad annbudget=%q: want an integer byte count", v)
		}
		p.annBudget = n
	}
	for name, dst := range map[string]*bool{
		"composition": &p.composition, "clip": &p.clip,
	} {
		if err := boolParam(name, dst); err != nil {
			return p, err
		}
	}
	return p, nil
}

// fingerprint folds the options that change analysis output into the
// cache key; the performance knobs (window, par, mmap, annbudget) do
// not alter results and are excluded.
func (p analyzeParams) fingerprint() string {
	fp := fmt.Sprintf("clip=%t composition=%t", p.clip, p.composition)
	if p.hazards {
		// Appended conditionally so pre-existing /v1/analyze cache keys
		// (and the smoke golden) are unchanged.
		fp += " hazards=true"
	}
	return fp
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.serveAnalysis(w, r, false)
}

// handleHazards is /v1/analyze plus the dynamic hazard pass: the same
// inputs and knobs, with the report's hazards section populated (and a
// distinct cache key, so the two endpoints never alias).
func (s *Server) handleHazards(w http.ResponseWriter, r *http.Request) {
	s.serveAnalysis(w, r, true)
}

func (s *Server) serveAnalysis(w http.ResponseWriter, r *http.Request, hazards bool) {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()

	params, err := parseParams(r, s.opts)
	if err != nil {
		writeError(w, err)
		return
	}
	params.hazards = hazards

	var rep *Report
	if params.segdir != "" {
		rep, err = s.analyzeSegdir(ctx, params)
	} else {
		rep, err = s.analyzeBody(ctx, r, params)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// analyzeBody ingests a trace from the request body.
func (s *Server) analyzeBody(ctx context.Context, r *http.Request, params analyzeParams) (*Report, error) {
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, s.opts.MaxUploadBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return nil, httpErrorf(http.StatusRequestEntityTooLarge, "trace exceeds the %d-byte upload limit", tooBig.Limit)
		}
		return nil, fmt.Errorf("reading upload: %w", err)
	}
	if len(body) == 0 {
		return nil, httpErrorf(http.StatusBadRequest, "empty request body (upload a trace, or pass ?segdir=)")
	}

	sum := sha256.Sum256(body)
	id := hex.EncodeToString(sum[:8]) + "-" + shortHash(params.fingerprint())
	if rep := s.cached(id); rep != nil {
		s.cacheHits.Add(1)
		return rep, nil
	}

	var tr *trace.Trace
	switch params.format {
	case "json":
		tr, err = trace.ReadJSON(bytes.NewReader(body))
	case "stream":
		tr, err = trace.ReadStream(bytes.NewReader(body))
		if err != nil && errors.Is(err, trace.ErrTruncatedStream) && tr != nil && len(tr.Events) > 0 {
			err = nil // analyze the durable prefix, as cla does
		}
	default:
		tr, err = trace.ReadBinary(bytes.NewReader(body))
	}
	if err != nil {
		// An undecodable upload is the client's problem, not ours.
		return nil, &httpError{http.StatusUnprocessableEntity,
			fmt.Sprintf("decoding %s trace: %v", params.format, err)}
	}

	an, err := s.run(ctx, id, "trace", core.TraceSource(tr), params)
	if err != nil {
		return nil, err
	}
	rep := buildReport(id, "trace", false, an)
	if params.hazards {
		hz, err := hazard.FromTrace(tr)
		if err != nil {
			return nil, &httpError{http.StatusUnprocessableEntity,
				fmt.Sprintf("hazard analysis: %v", err)}
		}
		rep.Hazards = hz
	}
	return s.store(rep), nil
}

// analyzeSegdir ingests a server-local segment directory.
func (s *Server) analyzeSegdir(ctx context.Context, params analyzeParams) (*Report, error) {
	manifest, err := os.ReadFile(filepath.Join(params.segdir, segment.ManifestName))
	if err != nil {
		return nil, httpErrorf(http.StatusNotFound, "segment directory %s: %v", params.segdir, err)
	}
	sum := sha256.Sum256(manifest)
	id := hex.EncodeToString(sum[:8]) + "-" + shortHash(params.fingerprint())
	source := "segments:" + params.segdir
	if rep := s.cached(id); rep != nil {
		s.cacheHits.Add(1)
		return rep, nil
	}

	rdr, err := segment.OpenWith(params.segdir, segment.ReadOptions{NoMmap: !params.mmap})
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", params.segdir, err)
	}
	// closingSource releases the reader's mappings when the analysis
	// goroutine finishes, even if the request deadline abandoned it.
	an, err := s.run(ctx, id, source, closingSource{rdr}, params)
	if err != nil {
		return nil, err
	}
	rep := buildReport(id, source, true, an)
	if params.hazards {
		// The analysis source closed its reader; the hazard pass streams
		// the directory again on a fresh one (segment-range parallel).
		hrdr, err := segment.OpenWith(params.segdir, segment.ReadOptions{NoMmap: !params.mmap})
		if err != nil {
			return nil, fmt.Errorf("reopening %s: %w", params.segdir, err)
		}
		hz, err := hazard.FromSegments(hrdr, params.par)
		hrdr.Close()
		if err != nil {
			return nil, &httpError{http.StatusUnprocessableEntity,
				fmt.Sprintf("hazard analysis: %v", err)}
		}
		rep.Hazards = hz
	}
	return s.store(rep), nil
}

// run executes one analysis under the concurrency budget, the request
// deadline and full observation (shared instruments + progress
// tracker).
func (s *Server) run(ctx context.Context, id, source string, src core.Source, params analyzeParams) (*core.Analysis, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, httpErrorf(http.StatusServiceUnavailable, "timed out waiting for an analysis slot")
	}

	tracked := s.tracker.Start(id, source)
	s.active.Add(1)
	cleanup := func() {
		tracked.Done()
		s.active.Add(-1)
		<-s.sem
	}

	cfg := core.Config{
		Options: core.Options{
			ClipHold: params.clip,
			Observer: obs.Combine(s.ins.Run(), tracked),
		},
		CacheSegments:    params.window,
		TmpDir:           s.opts.TmpDir,
		Composition:      params.composition,
		ParallelSegments: params.par,
		NoMmap:           !params.mmap,
		AnnotationBudget: params.annBudget,
	}

	// The pipeline is not cancellable mid-pass, so a deadline abandons
	// the goroutine: it finishes on its own (bounded by the trace
	// size) and its result is dropped. The semaphore slot and tracker
	// entry are held until then, keeping the concurrency budget and
	// /debug/progress honest.
	type result struct {
		an  *core.Analysis
		err error
	}
	ch := make(chan result, 1)
	go func() {
		an, err := core.AnalyzeSource(src, cfg)
		ch <- result{an, err}
	}()
	select {
	case res := <-ch:
		cleanup()
		return res.an, res.err
	case <-ctx.Done():
		go func() { <-ch; cleanup() }()
		return nil, httpErrorf(http.StatusGatewayTimeout, "analysis exceeded the %s request budget", s.opts.Timeout)
	}
}

// closingSource streams from an open segment reader and closes it when
// the analysis returns, so abandoned (timed-out) runs still release
// their file mappings.
type closingSource struct{ rdr *segment.Reader }

func (c closingSource) Run(cfg core.Config) (*core.Analysis, error) {
	defer c.rdr.Close()
	return core.StreamSource(c.rdr).Run(cfg)
}

// cached returns the report for id, or nil.
func (s *Server) cached(id string) *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reports[id]
}

// store caches rep (FIFO eviction at the cap) and returns it.
func (s *Server) store(rep *Report) *Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.reports[rep.ID]; !ok {
		s.reports[rep.ID] = rep
		s.order = append(s.order, rep.ID)
		for len(s.order) > s.opts.CacheReports {
			delete(s.reports, s.order[0])
			s.order = s.order[1:]
		}
	}
	return rep
}

func (s *Server) handleReportList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]any{"reports": ids})
}

func (s *Server) handleReportGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rep := s.cached(id)
	if rep == nil {
		writeError(w, httpErrorf(http.StatusNotFound, "no report %q (it may have been evicted; re-POST the trace)", id))
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"runs": s.tracker.Snapshot()})
}

// shortHash is a compact stable digest for cache-key suffixes.
func shortHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:4])
}
