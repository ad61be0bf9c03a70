package serve

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"critlock/internal/core"
	"critlock/internal/input"
	"critlock/internal/segment"
	"critlock/internal/sim"
	"critlock/internal/trace"
	"critlock/internal/workloads"
)

// closeCounter counts the Closes of the input it wraps. When gate is
// non-nil, Analyze waits for it to close first.
type closeCounter struct {
	*input.Input
	gate   chan struct{}
	closes atomic.Int32
}

func (c *closeCounter) Analyze(cfg core.Config, hazards bool) (*input.Result, error) {
	if c.gate != nil {
		<-c.gate
	}
	return c.Input.Analyze(cfg, hazards)
}

func (c *closeCounter) Close() error {
	c.closes.Add(1)
	return c.Input.Close()
}

// openSegdir writes the deadlock-prone workload as a segment directory
// and opens it.
func openSegdir(t *testing.T) *input.Input {
	t.Helper()
	spec, err := workloads.Get("deadlockprone")
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := workloads.Run(sim.New(sim.Config{Contexts: 8, Seed: 1}), spec, workloads.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "segs")
	if err := segment.WriteTrace(dir, tr, segment.Options{SegmentEvents: 256}); err != nil {
		t.Fatal(err)
	}
	in, err := input.Dir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

type unreadable struct{ core.SegmentSource }

func (unreadable) LoadColumns(int, *trace.Columns) (int64, error) {
	return 0, errors.New("segment unreadable")
}

// statusOf is the HTTP status and text a client gets for err.
func statusOf(err error) (int, string) {
	err = inputError(err)
	var he *httpError
	if errors.As(err, &he) {
		return he.status, he.msg
	}
	return http.StatusInternalServerError, err.Error()
}

// TestRunClosesInput: run closes the input it was given exactly once
// on every path: a 200, a 503 when no analysis slot frees before the
// deadline, a 504 when the analysis outlives it (once the abandoned
// analysis finishes), and a 422 when the hazard fold fails.
func TestRunClosesInput(t *testing.T) {
	params := analyzeParams{clip: true, hazards: true}
	waitClosed := func(t *testing.T, c *closeCounter) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); c.closes.Load() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if n := c.closes.Load(); n != 1 {
			t.Errorf("input closed %d times, want 1", n)
		}
	}

	t.Run("200", func(t *testing.T) {
		s := New(Options{})
		c := &closeCounter{Input: openSegdir(t)}
		res, err := s.run(context.Background(), "id", "src", c, params)
		if err != nil || res.Hazards == nil {
			t.Fatalf("run = %v, %v", res, err)
		}
		waitClosed(t, c)
	})

	t.Run("503", func(t *testing.T) {
		s := New(Options{MaxConcurrent: 1})
		s.sem <- struct{}{} // the one slot is taken
		defer func() { <-s.sem }()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		c := &closeCounter{Input: openSegdir(t)}
		_, err := s.run(ctx, "id", "src", c, params)
		if status, _ := statusOf(err); status != http.StatusServiceUnavailable {
			t.Fatalf("run = %v, want a 503", err)
		}
		waitClosed(t, c)
	})

	t.Run("504", func(t *testing.T) {
		s := New(Options{MaxConcurrent: 1})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		c := &closeCounter{Input: openSegdir(t), gate: make(chan struct{})}
		_, err := s.run(ctx, "id", "src", c, params)
		if status, _ := statusOf(err); status != http.StatusGatewayTimeout {
			t.Fatalf("run = %v, want a 504", err)
		}
		if n := c.closes.Load(); n != 0 {
			t.Fatalf("input closed %d times while its analysis runs", n)
		}
		close(c.gate)
		waitClosed(t, c)
		// The slot comes back once the abandoned analysis is done.
		select {
		case s.sem <- struct{}{}:
			<-s.sem
		case <-time.After(10 * time.Second):
			t.Error("the analysis slot was not released")
		}
	})

	t.Run("422", func(t *testing.T) {
		s := New(Options{})
		in := openSegdir(t)
		in.Segments = unreadable{in.Segments}
		c := &closeCounter{Input: in}
		_, err := s.run(context.Background(), "id", "src", c, params)
		status, msg := statusOf(err)
		if status != http.StatusUnprocessableEntity || !strings.HasPrefix(msg, "hazard analysis: ") {
			t.Fatalf("run = %v (%d %q), want a 422 naming the hazard analysis", err, status, msg)
		}
		waitClosed(t, c)
	})
}
