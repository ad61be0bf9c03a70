package report

import (
	"fmt"
	"strings"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// SVGGantt renders the execution as a standalone SVG document: one
// lane per thread with compute, blocked time and per-lock critical
// sections, plus a red underline marking the critical path — a
// shareable version of the paper's Fig. 1 drawing. src is the source
// the analysis ran over.
func SVGGantt(an *core.Analysis, src core.SegmentSource, width int) (string, error) {
	tr := an.Trace
	if width < 100 {
		width = 100
	}
	start, end := an.Start, an.Start+an.CP.WallTime
	if end <= start || tr.NumThreads() == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="100" height="20"><text x="4" y="14">empty trace</text></svg>`, nil
	}

	const (
		laneH   = 22
		laneGap = 10
		barH    = 12
		cpH     = 3
		leftPad = 120
		topPad  = 28
	)
	length := float64(end - start)
	x := func(t trace.Time) float64 {
		return leftPad + float64(t-start)/length*float64(width)
	}

	// Stable lock palette.
	palette := []string{
		"#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#76b7b2",
		"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
	}
	colorOf := map[trace.ObjID]string{}
	var mutexes []trace.ObjectInfo
	for _, o := range tr.Objects {
		if o.Kind == trace.ObjMutex {
			colorOf[o.ID] = palette[len(mutexes)%len(palette)]
			mutexes = append(mutexes, o)
		}
	}

	height := topPad + tr.NumThreads()*(laneH+laneGap) + 24 + (len(mutexes)+2)/3*18
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`,
		leftPad+width+20, height)
	fmt.Fprintf(&b, `<text x="%d" y="16">%s — %d ns, critical path %d ns</text>`,
		leftPad, escapeXML(tr.Meta["workload"]), end-start, an.CP.Length)

	laneY := func(tid trace.ThreadID) int { return topPad + int(tid)*(laneH+laneGap) }
	rect := func(from, to trace.Time, y int, h int, fill, title string) {
		x0, x1 := x(from), x(to)
		if x1-x0 < 0.5 {
			x1 = x0 + 0.5
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s"><title>%s</title></rect>`,
			x0, y, x1-x0, h, fill, escapeXML(title))
	}

	// Thread labels and base lanes (lifetime = compute), then waits and
	// critical sections over them.
	err := timelineSpans(src, tr.NumThreads(), func(s span) {
		y := laneY(s.thread)
		switch s.kind {
		case spanLife:
			fmt.Fprintf(&b, `<text x="4" y="%d">%s</text>`, y+barH-1, escapeXML(tr.Thread(s.thread).Name))
			rect(s.from, s.to, y, barH, "#e0e0e0", "compute")
		case spanLockWait:
			rect(s.from, s.to, y, barH, "#c9c9c9", "waiting: "+tr.ObjName(s.obj))
		case spanHold:
			mode := ""
			if s.shared {
				mode = " (shared)"
			}
			rect(s.from, s.to, y, barH, colorOf[s.obj], tr.ObjName(s.obj)+mode)
		case spanBarrierWait:
			rect(s.from, s.to, y, barH, "#c9c9c9", "barrier: "+tr.ObjName(s.obj))
		case spanCondWait:
			rect(s.from, s.to, y, barH, "#c9c9c9", "cond wait: "+tr.ObjName(s.obj))
		}
	})
	if err != nil {
		return "", err
	}

	// Critical-path underline.
	for _, p := range an.CP.Pieces {
		rect(p.From, p.To, laneY(p.Thread)+barH+2, cpH, "#d62728", "critical path")
	}

	// Legend.
	ly := topPad + tr.NumThreads()*(laneH+laneGap) + 6
	fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="#d62728"/><text x="%d" y="%d">critical path</text>`,
		leftPad, ly, leftPad+14, ly+9)
	for i, o := range mutexes {
		lx := leftPad + 130 + (i%3)*170
		lyy := ly + (i/3)*18
		fmt.Fprintf(&b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/><text x="%d" y="%d">%s</text>`,
			lx, lyy, colorOf[o.ID], lx+14, lyy+9, escapeXML(o.Name))
	}
	b.WriteString(`</svg>`)
	return b.String(), nil
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
