package report

import (
	"fmt"
	"strings"

	"critlock/internal/core"
	"critlock/internal/trace"
)

// Gantt renders the execution as an ASCII timeline — the view of the
// paper's Fig. 1 and Fig. 7. One row per thread plus a marker row
// showing where the critical path runs:
//
//	=  computing outside critical sections
//	.  blocked (lock wait, barrier, condition wait, join)
//	a… inside a critical section (one letter per lock, see legend)
//	^  this part of the thread lies on the critical path
//
// width is the number of character columns the run is scaled to. src
// is the source the analysis ran over.
func Gantt(an *core.Analysis, src core.SegmentSource, width int) (string, error) {
	tr := an.Trace
	if width < 10 {
		width = 10
	}
	start, end := an.Start, an.Start+an.CP.WallTime
	if end <= start {
		return "(empty trace)\n", nil
	}
	length := float64(end - start)
	pos := func(t trace.Time) int {
		p := int(float64(t-start) / length * float64(width))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}

	// Assign letters to mutexes in ObjID order.
	letters := map[trace.ObjID]byte{}
	next := byte('a')
	for _, o := range tr.Objects {
		if o.Kind == trace.ObjMutex {
			letters[o.ID] = next
			if next == 'z' {
				next = 'A'
			} else if next == 'Z' {
				next = '?'
			} else if next != '?' {
				next++
			}
		}
	}

	rows := make([][]byte, tr.NumThreads())
	cpRows := make([][]byte, tr.NumThreads())
	for i := range rows {
		rows[i] = []byte(strings.Repeat(" ", width))
		cpRows[i] = []byte(strings.Repeat(" ", width))
	}
	paint := func(row []byte, from, to trace.Time, c byte) {
		a, b := pos(from), pos(to)
		for i := a; i <= b && i < width; i++ {
			row[i] = c
		}
	}

	// Lifetimes as '=', then waits as '.' and holds as the lock's
	// letter over them.
	err := timelineSpans(src, tr.NumThreads(), func(s span) {
		switch s.kind {
		case spanLife:
			paint(rows[s.thread], s.from, s.to, '=')
		case spanHold:
			paint(rows[s.thread], s.from, s.to, letters[s.obj])
		default:
			paint(rows[s.thread], s.from, s.to, '.')
		}
	})
	if err != nil {
		return "", err
	}

	// Critical-path markers.
	for _, p := range an.CP.Pieces {
		paint(cpRows[p.Thread], p.From, p.To, '^')
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %d ns, one column ≈ %.0f ns\n", end-start, length/float64(width))
	nameW := 0
	for _, th := range tr.Threads {
		if len(th.Name) > nameW {
			nameW = len(th.Name)
		}
	}
	for tid := range rows {
		fmt.Fprintf(&b, "%-*s |%s|\n", nameW, tr.Threads[tid].Name, rows[tid])
		cp := string(cpRows[tid])
		if strings.TrimSpace(cp) != "" {
			fmt.Fprintf(&b, "%-*s |%s|\n", nameW, "", cp)
		}
	}
	b.WriteString("legend: = compute   . blocked   ^ on critical path\n")
	for _, o := range tr.Objects {
		if o.Kind == trace.ObjMutex {
			fmt.Fprintf(&b, "        %c %s\n", letters[o.ID], o.Name)
		}
	}
	return b.String(), nil
}
