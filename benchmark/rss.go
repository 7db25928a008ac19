package main

import (
	"os"
	"strconv"
	"strings"
)

// resetPeakRSS resets the kernel's resident-set high-water mark to the
// current resident set, so the peak read next belongs to what ran in between.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // not permitted everywhere; peaks then only grow
}

// peakRSSMiB reads VmHWM, the process's peak resident set since the last
// reset, in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
