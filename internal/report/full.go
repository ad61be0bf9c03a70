package report

import (
	"fmt"
	"strings"

	"critlock/internal/core"
	"critlock/internal/hazard"
)

// FullOptions selects the sections of a bundled report.
type FullOptions struct {
	// TopLocks caps the lock table (0 = all).
	TopLocks int
	// Windows adds a per-window criticality section at this
	// resolution (0 = omit).
	Windows int
	// Threads includes the per-thread table.
	Threads bool
	// LockOrder includes the acquisition-order graph and cycles.
	LockOrder bool
	// Slack includes the per-lock slack ranking.
	Slack bool
}

// Full renders a complete markdown report of an analysis — a
// self-contained artifact for CI runs or issue reports. src is the
// source the analysis ran over; the slack and lock-order sections
// replay it.
func Full(an *core.Analysis, src core.SegmentSource, opts FullOptions) (string, error) {
	var b strings.Builder
	tr := an.Trace

	fmt.Fprintf(&b, "# Critical lock analysis: %s\n\n", orUnknown(tr.Meta["workload"]))
	fmt.Fprintf(&b, "- backend: %s, threads: %d, events: %d\n", orUnknown(tr.Meta["backend"]), an.Totals.Threads, an.Totals.Events)
	fmt.Fprintf(&b, "- wall time: %d ns; critical path: %d ns (coverage %.1f%%)\n",
		an.CP.WallTime, an.CP.Length, 100*an.CP.Coverage())
	fmt.Fprintf(&b, "- lock invocations: %d (%d contended); critical locks: %d of %d\n\n",
		an.Totals.Invocations, an.Totals.ContendedInvs, len(an.CriticalLocks()), an.Totals.Mutexes)

	b.WriteString("## Locks (TYPE 1 + TYPE 2)\n\n")
	LockReport(an, opts.TopLocks).Markdown(&b)
	b.WriteString("\n## Critical path composition\n\n")
	CompositionReport(an).Markdown(&b)

	if an.Totals.Channels > 0 {
		b.WriteString("\n## Channels (hottest first)\n\n")
		ChanReport(an, opts.TopLocks).Markdown(&b)
	}

	if opts.Windows > 0 {
		fmt.Fprintf(&b, "\n## Criticality over %d windows\n\n", opts.Windows)
		WindowReport(an, opts.Windows).Markdown(&b)
	}
	if opts.Slack {
		b.WriteString("\n## Slack (distance from the critical path)\n\n")
		sa, err := an.Slack(src)
		if err != nil {
			return "", err
		}
		SlackReport(sa, opts.TopLocks).Markdown(&b)
	}
	if opts.Threads {
		b.WriteString("\n## Threads\n\n")
		ThreadReport(an).Markdown(&b)
	}
	if opts.LockOrder {
		b.WriteString("\n## Lock acquisition order\n\n")
		lo, err := hazard.LockOrderOf(src)
		if err != nil {
			return "", err
		}
		LockOrderReport(lo).Markdown(&b)
		if lo.HasCycle() {
			b.WriteString("\n**WARNING: lock-order inversion cycles (potential deadlocks):**\n\n")
			for _, cyc := range lo.CycleNames() {
				fmt.Fprintf(&b, "- %s\n", strings.Join(cyc, " → "))
			}
		} else {
			b.WriteString("\nNo lock-order inversion cycles found.\n")
		}
	}
	return b.String(), nil
}

func orUnknown(s string) string {
	if s == "" {
		return "<unknown>"
	}
	return s
}
