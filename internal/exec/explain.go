package exec

import (
	"fmt"
	"strings"
	"time"

	"bfcbo/internal/mem"
	"bfcbo/internal/plan"
	"bfcbo/internal/sched"
)

// ExplainAnalyze renders the plan tree annotated with observed runtime —
// actual rows next to the planner's estimates, plus batch counts and
// in-operator wall time from the pipelined executor — followed by the
// per-pipeline schedule and Bloom filter runtime. For reference runs (no
// operator stats) it falls back to est→actual rows only.
func (r *Result) ExplainAnalyze(p *plan.Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "executed (%s)  rows=%d  blooms=%d", p.Mode, r.Rows, len(p.Blooms))
	if r.Work != (Work{}) {
		fmt.Fprintf(&b, "  work[build=%d probe=%d tested=%d scanned=%d]", r.Work.Build, r.Work.Probe, r.Work.Tested, r.Work.Scanned)
	}
	b.WriteByte('\n')
	r.explainNode(&b, p.Root, 1)
	if len(r.Pipelines) > 0 {
		fmt.Fprintf(&b, "pipelines (%d):\n", len(r.Pipelines))
		for _, ps := range r.Pipelines {
			fmt.Fprintf(&b, "  %s  workers=%d rows=%d wall=%s%s\n",
				ps.Label, ps.Workers, ps.Rows, ps.Wall.Round(time.Microsecond), breakerSuffix(ps))
		}
	}
	for _, sc := range r.Scans {
		fmt.Fprintf(&b, "  scan %s morsels=%d\n", sc.Alias, sc.Morsels)
		for _, pr := range sc.Preds {
			pct := 100.0
			if pr.In > 0 {
				pct = 100 * float64(pr.Out) / float64(pr.In)
			}
			fmt.Fprintf(&b, "    pred %s: %d -> %d (%.1f%%)\n", pr.Pred, pr.In, pr.Out, pct)
		}
	}
	for _, bs := range r.BloomStats {
		fmt.Fprintf(&b, "  %s\n", bs)
	}
	if r.Sched != (sched.Stat{}) {
		fmt.Fprintf(&b, "scheduler: queue-wait=%s slot-wait=%s slot-busy=%s handoffs=%d\n",
			r.Sched.QueueWait.Round(time.Microsecond),
			r.Sched.SlotWait.Round(time.Microsecond),
			r.Sched.SlotBusy.Round(time.Microsecond),
			r.Sched.Handoffs)
	}
	return b.String()
}

// breakerSuffix renders the breaker finish phases of one pipeline, e.g.
// " finish=1.2ms [merge=300µs build=900µs]", plus any spill activity, e.g.
// " spill[bytes=1.2MB parts=64 depth=1]"; empty when the finish was
// immeasurably small and nothing spilled.
func breakerSuffix(ps PipelineStat) string {
	var b strings.Builder
	if ps.FinishWall > 0 {
		fmt.Fprintf(&b, " finish=%s", ps.FinishWall.Round(time.Microsecond))
		var parts []string
		ps.Phases.eachFinish(func(name string, d time.Duration) {
			parts = append(parts, fmt.Sprintf("%s=%s", name, d.Round(time.Microsecond)))
		})
		if len(parts) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(parts, " "))
		}
	}
	if ps.Spill.Spilled() {
		fmt.Fprintf(&b, " spill[bytes=%s parts=%d", mem.FormatBytes(ps.Spill.Bytes), ps.Spill.Partitions)
		if ps.Spill.BytesRead > 0 {
			fmt.Fprintf(&b, " read=%s", mem.FormatBytes(ps.Spill.BytesRead))
		}
		if ps.Spill.Depth > 0 {
			fmt.Fprintf(&b, " depth=%d", ps.Spill.Depth)
		}
		b.WriteString("]")
	}
	return b.String()
}

func (r *Result) explainNode(b *strings.Builder, n plan.Node, depth int) {
	ind := strings.Repeat("  ", depth)
	head := ""
	switch t := n.(type) {
	case *plan.Scan:
		head = fmt.Sprintf("Scan %s (%s)", t.Alias, t.Table)
		if len(t.ApplyBlooms) > 0 {
			head += fmt.Sprintf("  blooms=%v", t.ApplyBlooms)
		}
	case *plan.Join:
		head = fmt.Sprintf("HashJoin(%s) %s", t.Kind(), t.Streaming)
		if len(t.BuildBlooms) > 0 {
			head += fmt.Sprintf("  buildBF=%v", t.BuildBlooms)
		}
	default:
		head = fmt.Sprintf("%T", n)
	}
	fmt.Fprintf(b, "%s%s  est=%.0f", ind, head, n.EstRows())
	if st := r.StatFor(n); st != nil {
		fmt.Fprintf(b, " actual=%d batches=%d wall=%s",
			st.RowsOut, st.Batches, st.Wall.Round(time.Microsecond))
		// Probe sub-phases; all zero for non-join operators.
		if st.Gather > 0 || st.Probe > 0 || st.Emit > 0 {
			fmt.Fprintf(b, " [gather=%s probe=%s emit=%s]",
				st.Gather.Round(time.Microsecond),
				st.Probe.Round(time.Microsecond),
				st.Emit.Round(time.Microsecond))
		}
	} else if a := r.ActualFor(n); a >= 0 {
		fmt.Fprintf(b, " actual=%.0f", a)
	}
	b.WriteByte('\n')
	if j, ok := n.(*plan.Join); ok {
		r.explainNode(b, j.Outer, depth+1)
		r.explainNode(b, j.Inner, depth+1)
	}
}
