package report

import (
	"bytes"
	"strings"
	"testing"

	"critlock/internal/core"
	"critlock/internal/hazard"
	"critlock/internal/trace"
)

func TestTableRenderAligned(t *testing.T) {
	tab := NewTable("Title here", "Col", "Longer column", "C")
	tab.AddRow("a", "b", "c")
	tab.AddRow("longer-cell", "x")
	out := tab.String()
	if !strings.HasPrefix(out, "Title here\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, rule, 2 rows → 5? title+header+rule+2 = 5
		if len(lines) != 5 {
			t.Fatalf("got %d lines:\n%s", len(lines), out)
		}
	}
	// Header columns must align with row columns.
	header := lines[1]
	if !strings.Contains(header, "Col") || !strings.Contains(header, "Longer column") {
		t.Errorf("bad header: %q", header)
	}
	if idx := strings.Index(header, "Longer column"); idx >= 0 {
		row := lines[3]
		if len(row) > idx && row[idx] != 'b' {
			t.Errorf("column misaligned: header %q vs row %q", header, row)
		}
	}
}

func TestTableExtraCellsDropped(t *testing.T) {
	tab := NewTable("", "A", "B")
	tab.AddRow("1", "2", "3", "4")
	if got := len(tab.Rows[0]); got != 2 {
		t.Errorf("row has %d cells, want 2", got)
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("", "Lock", "Value")
	tab.AddRow("tq[0].qlock", "39.15%")
	tab.AddRow(`has,comma`, `has"quote`)
	tab.AddRow("short") // missing cell renders empty
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "Lock,Value\ntq[0].qlock,39.15%\n\"has,comma\",\"has\"\"quote\"\nshort,\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

func TestFormatters(t *testing.T) {
	if Pct(39.154) != "39.15%" {
		t.Errorf("Pct = %s", Pct(39.154))
	}
	if F2(7.009) != "7.01" {
		t.Errorf("F2 = %s", F2(7.009))
	}
}

func buildAnalysis(t *testing.T) (*core.Analysis, core.SegmentSource) {
	t.Helper()
	b := trace.NewBuilder()
	b.Meta("workload", "unit")
	main := b.Thread("main", trace.NoThread)
	w := b.Thread("worker", main)
	m := b.Mutex("hot")
	bar := b.Barrier("phase", 2)
	b.Start(0, main)
	b.Start(0, w)
	b.CS(main, m, 10, 10, 30)
	b.CS(w, m, 15, 30, 45)
	b.BarrierWait(main, bar, 40, 50, false)
	b.BarrierWait(w, bar, 50, 50, true)
	b.Exit(60, main)
	b.Exit(70, w)
	tr := b.Trace()
	an, err := core.AnalyzeDefault(tr)
	if err != nil {
		t.Fatal(err)
	}
	return an, core.TraceSegments(tr)
}

func TestLockReport(t *testing.T) {
	an, _ := buildAnalysis(t)
	tab := LockReport(an, 0)
	out := tab.String()
	if !strings.Contains(out, "hot") || !strings.Contains(out, "CP Time %") {
		t.Errorf("lock report missing fields:\n%s", out)
	}
	if got := len(tab.Rows); got != 1 {
		t.Errorf("rows = %d, want 1", got)
	}
	// topN smaller than lock count truncates.
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	m1, m2 := b.Mutex("a"), b.Mutex("b")
	b.Start(0, main)
	b.CS(main, m1, 1, 1, 2)
	b.CS(main, m2, 3, 3, 4)
	b.Exit(10, main)
	an2, err := core.AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(LockReport(an2, 1).Rows); got != 1 {
		t.Errorf("topN=1 rows = %d", got)
	}
}

func TestSummaryAndThreadReport(t *testing.T) {
	an, _ := buildAnalysis(t)
	var buf bytes.Buffer
	Summary(&buf, an)
	s := buf.String()
	for _, want := range []string{"workload:  unit", "critical path", "lock invocations"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	tt := ThreadReport(an).String()
	if !strings.Contains(tt, "worker") || !strings.Contains(tt, "Barrier Wait") {
		t.Errorf("thread report:\n%s", tt)
	}
}

func TestGantt(t *testing.T) {
	an, src := buildAnalysis(t)
	g, err := Gantt(an, src, 60)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main", "worker", "a hot", "legend", "^"} {
		if !strings.Contains(g, want) {
			t.Errorf("gantt missing %q:\n%s", want, g)
		}
	}
	// Waits must render as dots (worker blocked on "hot" 15→30).
	if !strings.Contains(g, ".") {
		t.Errorf("gantt shows no blocked time:\n%s", g)
	}
}

func TestGanttDegenerate(t *testing.T) {
	an := &core.Analysis{Trace: &trace.Trace{}}
	if got, _ := Gantt(an, core.TraceSegments(an.Trace), 5); !strings.Contains(got, "empty") {
		t.Errorf("empty-trace gantt = %q", got)
	}
}

func TestSVGGantt(t *testing.T) {
	an, src := buildAnalysis(t)
	svg, err := SVGGantt(an, src, 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<svg", "</svg>", "critical path", "hot", "worker",
		`fill="#d62728"`, "<title>",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	// No unescaped XML-breaking characters from lock names.
	b := trace.NewBuilder()
	main := b.Thread(`t<&>"`, trace.NoThread)
	m := b.Mutex(`lock<&>`)
	b.Start(0, main)
	b.CS(main, m, 1, 1, 5)
	b.Exit(10, main)
	tr2 := b.Trace()
	an2, err := core.AnalyzeDefault(tr2)
	if err != nil {
		t.Fatal(err)
	}
	svg2, err := SVGGantt(an2, core.TraceSegments(tr2), 200)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg2, "lock<&>") {
		t.Error("lock name not escaped")
	}
	if !strings.Contains(svg2, "lock&lt;&amp;&gt;") {
		t.Error("escaped lock name missing")
	}
}

func TestSVGGanttEmpty(t *testing.T) {
	an := &core.Analysis{Trace: &trace.Trace{}}
	if got, _ := SVGGantt(an, core.TraceSegments(an.Trace), 50); !strings.Contains(got, "empty trace") {
		t.Errorf("empty svg = %q", got)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := NewTable("T|itle", "Lock", "CP")
	tab.AddRow("a|b", "39.15%")
	var buf bytes.Buffer
	if err := tab.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"**T\\|itle**", "| Lock | CP |", "|---|---|", "| a\\|b | 39.15% |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFullReport(t *testing.T) {
	an, src := buildAnalysis(t)
	_, lo, err := hazard.Fold(src)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := an.Slack(src)
	if err != nil {
		t.Fatal(err)
	}
	doc := Full(an, FullOptions{TopLocks: 0, Windows: 4, Threads: true, LockOrder: lo, Slack: sa})
	for _, want := range []string{
		"# Critical lock analysis: unit",
		"## Locks (TYPE 1 + TYPE 2)",
		"## Critical path composition",
		"## Criticality over 4 windows",
		"## Slack",
		"## Threads",
		"## Lock acquisition order",
		"No lock-order inversion cycles found.",
		"| hot |",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("full report missing %q", want)
		}
	}
	// Minimal options produce a shorter document.
	small := Full(an, FullOptions{TopLocks: 1})
	if strings.Contains(small, "## Threads") || len(small) >= len(doc) {
		t.Error("minimal report not minimal")
	}
}

func TestNarrate(t *testing.T) {
	an, _ := buildAnalysis(t)
	out := Narrate(an, 0)
	for _, want := range []string{"critical path:", "starts on", "ends on", "ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("narration missing %q:\n%s", want, out)
		}
	}
	// Capped narration mentions truncation when hops exceed the cap.
	capped := Narrate(an, 1)
	if len(an.CP.JumpLog) > 1 && !strings.Contains(capped, "more hops") {
		t.Errorf("capped narration not truncated:\n%s", capped)
	}
}

func TestNarrateSingleThread(t *testing.T) {
	b := trace.NewBuilder()
	main := b.Thread("main", trace.NoThread)
	b.Start(0, main)
	b.Exit(10, main)
	an, err := core.AnalyzeDefault(b.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if out := Narrate(an, 0); !strings.Contains(out, "whole path stays") {
		t.Errorf("single-thread narration:\n%s", out)
	}
}
