package exec

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"bfcbo/internal/mem"
	"bfcbo/internal/sched"
)

// This file is the post-query invariant audit: after a query ends —
// cleanly, by error, by cancellation, or through the panic-containment
// path — the shared engine state must show no trace of it. The checker
// runs after queries in tests and chaos runs, which is what turns "the
// unwind looked right" into a checked property under fault injection.

// AuditState names the shared resources the audit inspects.
type AuditState struct {
	// Broker, when non-nil, must hold zero reserved bytes.
	Broker *mem.Broker
	// Sched, when non-nil, must show no leased slots, no admitted
	// queries, and no slot waiters.
	Sched *sched.Scheduler
	// SpillDir, when non-empty, must contain no bfcbo spill
	// directories or run files.
	SpillDir string
}

// Audit checks the post-query invariants and returns one error listing
// every violation (nil when clean). Call it only when no query is in
// flight — a concurrent run legitimately holds broker bytes and slots.
func Audit(st AuditState) error {
	var bad []string
	if st.Broker != nil {
		if used := st.Broker.Used(); used != 0 {
			bad = append(bad, fmt.Sprintf("broker holds %d bytes", used))
		}
	}
	if st.Sched != nil {
		if n := st.Sched.InUse(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d worker slots still leased", n))
		}
		if n := st.Sched.Admitted(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d queries still admitted", n))
		}
		if n := st.Sched.SlotWaiters(); n != 0 {
			bad = append(bad, fmt.Sprintf("%d workers still waiting for slots", n))
		}
	}
	if st.SpillDir != "" {
		if left := leftoverSpill(st.SpillDir); len(left) > 0 {
			bad = append(bad, fmt.Sprintf("leftover spill files: %s", strings.Join(left, ", ")))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("exec: invariant audit failed: %s", strings.Join(bad, "; "))
	}
	return nil
}

// leftoverSpill lists bfcbo spill directories and run files still under
// root (bounded; the list is for the error message, not an inventory).
func leftoverSpill(root string) []string {
	var left []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root || len(left) >= 8 {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, "bfcbo-") || strings.HasSuffix(name, ".spill") {
			left = append(left, path)
		}
		return nil
	})
	return left
}
