package core_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"critlock/internal/core"
	"critlock/internal/report"
	"critlock/internal/trace"
)

// convoyTrace is n events of 16 threads taking a hot mutex in turn
// (contended whenever it was still held) and a cold one right after,
// the shape of the benchmark's convoy workload.
func convoyTrace(n int, seed int64) *trace.Trace {
	const threads = 16
	rng := rand.New(rand.NewSource(seed))
	col := trace.NewCollector()
	bufs := make([]*trace.ThreadBuffer, threads)
	bufs[0] = col.RegisterThread("t0", trace.NoThread)
	for i := 1; i < threads; i++ {
		bufs[i] = col.RegisterThread(fmt.Sprintf("t%d", i), 0)
	}
	hot := col.RegisterObject(trace.ObjMutex, "hot", 0)
	cold := col.RegisterObject(trace.ObjMutex, "cold", 0)
	bufs[0].Emit(0, trace.EvThreadStart, trace.NoObj, int64(trace.NoThread))
	for i := 1; i < threads; i++ {
		bufs[0].Emit(0, trace.EvThreadCreate, trace.NoObj, int64(i))
		bufs[i].Emit(0, trace.EvThreadStart, trace.NoObj, 0)
	}
	tm, free := trace.Time(1), trace.Time(0)
	for r := 0; r < n/(threads*6); r++ {
		for k, b := range bufs {
			acq := tm + trace.Time(k)
			obt := max(acq, free+1)
			rel := obt + 5 + trace.Time(rng.Intn(9))
			arg := int64(0)
			if obt > acq {
				arg = trace.LockArgContended
			}
			b.Emit(acq, trace.EvLockAcquire, hot, 0)
			b.Emit(obt, trace.EvLockObtain, hot, arg)
			b.Emit(rel, trace.EvLockRelease, hot, 0)
			b.Emit(rel, trace.EvLockAcquire, cold, 0)
			b.Emit(rel, trace.EvLockObtain, cold, 0)
			b.Emit(rel+1, trace.EvLockRelease, cold, 0)
			free = rel
		}
		tm = free + 20 + trace.Time(rng.Intn(10))
	}
	for _, b := range bufs {
		b.Emit(tm, trace.EvThreadExit, trace.NoObj, 0)
	}
	return col.Finish()
}

// TestAnnotationBytes pins what the annotations cost: on a 256K-event
// convoy the resident store is exactly its records and entry links at
// their sizes, at most 2.5 bytes per event, and one byte less of
// budget spills the last segment without changing the export or slack.
func TestAnnotationBytes(t *testing.T) {
	tr := convoyTrace(256<<10, 1)
	n := len(tr.Events)
	src := core.TraceSegments(tr)
	resident, recs, entries, spilled, err := core.Annotations(src, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if spilled {
		t.Fatal("spilled under the default budget")
	}
	if want := int64(recs*core.AnnRecSize + entries*core.AnnEntrySize); resident != want {
		t.Fatalf("resident %d bytes, want %d records × %d + %d entry links × %d = %d",
			resident, recs, core.AnnRecSize, entries, core.AnnEntrySize, want)
	}
	if per := float64(resident) / float64(n); per > 2.5 {
		t.Fatalf("resident %.2f bytes per event (%d records, %d entry links over %d events), want at most 2.5",
			per, recs, entries, n)
	}
	t.Logf("%d events: %d records, %d entry links, %d bytes (%.2f per event)",
		n, recs, entries, resident, float64(resident)/float64(n))

	budget := resident - 1
	if _, _, _, spilled, err := core.Annotations(src, t.TempDir(), budget); err != nil || !spilled {
		t.Fatalf("at budget %d: spilled = %v, err = %v; want a spill", budget, spilled, err)
	}
	run := func(budget int64) (string, *core.SlackAnalysis) {
		t.Helper()
		cfg := core.Config{Options: core.DefaultOptions(), AnnotationBudget: budget, TmpDir: t.TempDir()}
		an, err := core.AnalyzeSource(core.TraceSource(tr), cfg)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		exp, err := json.Marshal(report.BuildExport("", "", true, an))
		if err != nil {
			t.Fatal(err)
		}
		slack, err := an.Slack(src)
		if err != nil {
			t.Fatalf("budget %d: slack: %v", budget, err)
		}
		return string(exp), slack
	}
	wantExp, wantSlack := run(0)
	if gotExp, gotSlack := run(budget); gotExp != wantExp || !reflect.DeepEqual(gotSlack, wantSlack) {
		t.Errorf("at budget %d the export or slack differs from the resident run", budget)
	}
}

// TestSlackUsesRunTmpDir: Slack's annotation store keeps the analysis's
// budget and TmpDir, so at budget -1 it spills to that directory and
// fails once the directory is gone.
func TestSlackUsesRunTmpDir(t *testing.T) {
	tr := convoyTrace(4096, 1)
	dir := filepath.Join(t.TempDir(), "tmp")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Options: core.DefaultOptions(), AnnotationBudget: -1, TmpDir: dir}
	an, err := core.AnalyzeSource(core.TraceSource(tr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	_, err = an.Slack(core.TraceSegments(tr))
	if err == nil || !strings.Contains(err.Error(), "creating annotation file") {
		t.Fatalf("Slack with its TmpDir removed: err = %v, want the annotation file's creation error", err)
	}
}
