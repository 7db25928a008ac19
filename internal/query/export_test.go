package query

import (
	"testing"

	"bfcbo/internal/vec"
)

// setVectorLoops turns the vector loops on or off (off runs the Go loops
// alone) and returns the function that restores the setting. Tests that
// flip it must not run in parallel.
func setVectorLoops(on bool) (restore func()) {
	prev := vectorLoops
	vectorLoops = on
	return func() { vectorLoops = prev }
}

// bothLoops runs f as two subtests, "avx512" with the vector loops on and
// "go" with the Go loops alone. The first skips on a CPU whose vector
// loops would not run.
func bothLoops(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, on := range []bool{true, false} {
		name := "go"
		if on {
			name = "avx512"
		}
		t.Run(name, func(t *testing.T) {
			if on && !vec.AVX512() {
				t.Skip("the CPU lacks AVX-512 F/DQ/VL: only the Go loops run here")
			}
			defer setVectorLoops(on)()
			f(t)
		})
	}
}
