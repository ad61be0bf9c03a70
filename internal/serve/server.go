// Package serve is the analysis-as-a-service layer: an HTTP server
// that ingests traces (binary or JSON request bodies, or server-local
// segment directories), runs critical lock analysis
// under a concurrency budget, caches reports by content hash, and
// exposes its own behavior through internal/obs — Prometheus-text
// /metrics with per-phase histograms, /debug/progress with live run
// snapshots, and expvar.
//
// Endpoints:
//
//	POST /v1/analyze          analyze the request body (binary or JSON, detected from its bytes)
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
	"critlock/internal/input"
	"critlock/internal/obs"
	"critlock/internal/report"
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
	// NoMmap reads segment files into buffers instead of
	// memory-mapping them.
	NoMmap bool
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

// writeReport serves rep in the report's one JSON form
// (report.WriteExport) and records the write as the "report" phase. A
// report that cannot be encoded fails before its first byte, and is
// answered with a 500 instead.
func (s *Server) writeReport(w http.ResponseWriter, rep *Report) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/json")
	sw := &sentWriter{w: w}
	if err := report.WriteExport(sw, rep); err != nil {
		if !sw.sent {
			writeError(w, fmt.Errorf("encoding report %s: %w", rep.ID, err))
		}
		return
	}
	s.ins.Run().PhaseDone("report", time.Since(start))
}

// sentWriter notes whether any byte reached the response, after which
// the status can no longer change.
type sentWriter struct {
	w    io.Writer
	sent bool
}

func (sw *sentWriter) Write(p []byte) (int, error) {
	sw.sent = true
	return sw.w.Write(p)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// analyzeParams are the per-request knobs, parsed from the query.
// Every other key is ignored: the server's own options set how segment
// files are read and the annotation budget, which never change a
// report, and the analysis sizes itself.
type analyzeParams struct {
	segdir string // server-local segment directory
	clip   bool
	// hazards runs the dynamic hazard pass and attaches its report
	// (set by the /v1/hazards endpoint, not a query knob).
	hazards bool
}

func parseParams(r *http.Request) (analyzeParams, error) {
	q := r.URL.Query()
	p := analyzeParams{segdir: q.Get("segdir"), clip: true}
	if v := q.Get("clip"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return p, httpErrorf(http.StatusBadRequest, "bad clip=%q: want a boolean", v)
		}
		p.clip = b
	}
	return p, nil
}

// fingerprint folds the options that change analysis output into the
// cache key. Composition is not a knob (every
// analysis computes it), but "composition=false" stays in the string:
// it is what every default request's fingerprint has carried, and
// dropping it would move every cache ID, the goldens' id lines too.
func (p analyzeParams) fingerprint() string {
	fp := fmt.Sprintf("clip=%t composition=false", p.clip)
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

	params, err := parseParams(r)
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
		writeError(w, inputError(err))
		return
	}
	s.writeReport(w, rep)
}

// inputError words a failure of internal/input for the client: an
// undecodable upload and a hazard pass that rejects the trace are the
// client's problem (422), and an analysis error keeps its own text
// (writeError tells its status from its type).
func inputError(err error) error {
	var ie *input.Error
	if !errors.As(err, &ie) {
		return err
	}
	switch ie.Stage {
	case input.StageOpen:
		return fmt.Errorf("opening %s: %w", ie.Name, ie.Err)
	case input.StageDecode:
		return &httpError{http.StatusUnprocessableEntity, fmt.Sprintf("decoding trace: %v", ie.Err)}
	case input.StageHazard:
		return &httpError{http.StatusUnprocessableEntity, fmt.Sprintf("hazard analysis: %v", ie.Err)}
	}
	return ie.Err
}

// uploadPrealloc caps the buffer an upload reserves from its
// Content-Length before any byte arrives, so a lying header cannot
// reserve more than this; a larger body grows the buffer as it reads.
const uploadPrealloc = 4 << 20

// analyzeBody ingests a trace from the request body.
func (s *Server) analyzeBody(ctx context.Context, r *http.Request, params analyzeParams) (*Report, error) {
	// bytes.MinRead spare bytes let the read that meets EOF fit without
	// regrowing a buffer the body fills exactly.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), uploadPrealloc)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, s.opts.MaxUploadBytes))
	body := buf.Bytes()
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

	start := time.Now()
	in, err := input.Bytes("trace", body)
	if err != nil {
		return nil, err
	}
	s.ins.Run().PhaseDone("decode", time.Since(start))
	return s.analyze(ctx, id, "trace", in, params)
}

// analyzeSegdir ingests a server-local segment directory.
func (s *Server) analyzeSegdir(ctx context.Context, params analyzeParams) (*Report, error) {
	manifest, err := os.ReadFile(filepath.Join(params.segdir, segment.ManifestName))
	if err != nil {
		return nil, httpErrorf(http.StatusNotFound, "segment directory %s: %v", params.segdir, err)
	}
	sum := sha256.Sum256(manifest)
	id := hex.EncodeToString(sum[:8]) + "-" + shortHash(params.fingerprint())
	if rep := s.cached(id); rep != nil {
		s.cacheHits.Add(1)
		return rep, nil
	}
	in, err := input.Dir(params.segdir, !s.opts.NoMmap)
	if err != nil {
		return nil, err
	}
	return s.analyze(ctx, id, "segments:"+params.segdir, in, params)
}

// analyze runs in and caches its report.
func (s *Server) analyze(ctx context.Context, id, source string, in *input.Input, params analyzeParams) (*Report, error) {
	res, err := s.run(ctx, id, source, in, params)
	if err != nil {
		return nil, err
	}
	rep := report.BuildExport(id, source, in.Streamed, res.Analysis)
	rep.Hazards = res.Hazards
	return s.store(rep), nil
}

// analysisInput is what run analyzes: an *input.Input.
type analysisInput interface {
	Analyze(cfg core.Config, hazards bool) (*input.Result, error)
	Close() error
}

// run executes one analysis of in, with the hazard pass when
// params.hazards is set (reported as the "hazard" phase), under the
// concurrency budget, the request deadline and full observation
// (shared instruments + progress tracker). It closes in on every path:
// at once when no slot frees before the deadline, otherwise on the
// analysis goroutine once the analysis and the fold are done (even if
// the deadline abandoned them), before the result is delivered, so
// every run releases its mappings.
func (s *Server) run(ctx context.Context, id, source string, in analysisInput, params analyzeParams) (*input.Result, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		in.Close()
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
	}

	// The pipeline is not cancellable mid-pass, so a deadline abandons
	// the goroutine: it finishes on its own (bounded by the trace
	// size) and its result is dropped. The semaphore slot and tracker
	// entry are held until then, keeping the concurrency budget and
	// /debug/progress honest.
	type result struct {
		res *input.Result
		err error
	}
	ch := make(chan result, 1)
	go func() {
		res, err := in.Analyze(cfg, params.hazards)
		in.Close()
		ch <- result{res, err}
	}()
	select {
	case r := <-ch:
		cleanup()
		return r.res, r.err
	case <-ctx.Done():
		go func() { <-ch; cleanup() }()
		return nil, httpErrorf(http.StatusGatewayTimeout, "analysis exceeded the %s request budget", s.opts.Timeout)
	}
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
	s.writeReport(w, rep)
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
