package spill

import (
	"errors"
	"os"
	"testing"

	"bfcbo/internal/faults"
)

// TestInjectedWriteFaultUnwinds proves the write-error unwind: an
// injected write failure returns a typed ErrIO wrapping the fault,
// removes the partial run file immediately, and poisons the writer so
// later appends and Finish report the same error.
func TestInjectedWriteFaultUnwinds(t *testing.T) {
	faults.Enable(faults.New(1, map[faults.Site]float64{faults.SpillWrite: 1}))
	defer faults.Disable()

	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("run", 2)
	if err != nil {
		t.Fatal(err)
	}
	chunk := [][]int32{{1, 2}, {3, 4}}
	err = w.AppendChunk(chunk)
	if !errors.Is(err, ErrIO) {
		t.Fatalf("AppendChunk = %v, want ErrIO", err)
	}
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.SpillWrite {
		t.Fatalf("fault not wrapped: %v", err)
	}
	if _, serr := os.Stat(w.path); !os.IsNotExist(serr) {
		t.Fatalf("partial run file survived the unwind: %v", serr)
	}
	if err2 := w.AppendChunk(chunk); !errors.Is(err2, ErrIO) {
		t.Fatalf("poisoned writer accepted a chunk: %v", err2)
	}
	if err2 := w.Finish(); !errors.Is(err2, ErrIO) {
		t.Fatalf("Finish after write error = %v, want ErrIO", err2)
	}
	if _, err2 := w.Reader(); !errors.Is(err2, ErrIO) {
		t.Fatalf("Reader after write error = %v, want ErrIO", err2)
	}
}

// TestDiskFullTyped proves the ENOSPC site maps to ErrDiskFull and the
// unwind removes the partial file.
func TestDiskFullTyped(t *testing.T) {
	inj := faults.New(2, nil)
	inj.SetDiskLimit(100)
	faults.Enable(inj)
	defer faults.Disable()

	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("run", 1)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]int32, 64)
	var werr error
	for i := 0; i < 10 && werr == nil; i++ {
		werr = w.AppendChunk([][]int32{big})
	}
	if !errors.Is(werr, ErrDiskFull) {
		t.Fatalf("want ErrDiskFull, got %v", werr)
	}
	if errors.Is(werr, ErrIO) {
		t.Fatalf("disk-full should not double as ErrIO: %v", werr)
	}
	if _, serr := os.Stat(w.path); !os.IsNotExist(serr) {
		t.Fatal("partial run file survived disk-full unwind")
	}
}

// TestInjectedSyncAndReadFaults covers the flush/close and read-back
// sites: both surface typed ErrIO with the run-file path.
func TestInjectedSyncAndReadFaults(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()

	w, err := d.NewWriter("sync", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendChunk([][]int32{{1}}); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.New(3, map[faults.Site]float64{faults.SpillSync: 1}))
	if err := w.Finish(); !errors.Is(err, ErrIO) {
		t.Fatalf("Finish under sync fault = %v", err)
	}
	faults.Disable()
	if _, serr := os.Stat(w.path); !os.IsNotExist(serr) {
		t.Fatal("sync-failed run file survived")
	}

	w2, err := d.NewWriter("read", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.AppendChunk([][]int32{{7}}); err != nil {
		t.Fatal(err)
	}
	r, err := w2.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	faults.Enable(faults.New(4, map[faults.Site]float64{faults.SpillRead: 1}))
	defer faults.Disable()
	if _, err := r.Next(); !errors.Is(err, ErrIO) {
		t.Fatalf("Next under read fault = %v", err)
	}
}

// TestRemovePropagatesTyped covers the Remove bugfix: an injected
// removal failure is no longer swallowed, and the file stays for
// Dir.Cleanup to reclaim.
func TestRemovePropagatesTyped(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.NewWriter("rm", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendChunk([][]int32{{1}}); err != nil {
		t.Fatal(err)
	}
	faults.Enable(faults.New(5, map[faults.Site]float64{faults.SpillRemove: 1}))
	if err := w.Remove(); !errors.Is(err, ErrIO) {
		t.Fatalf("Remove under fault = %v, want ErrIO", err)
	}
	faults.Disable()
	if _, serr := os.Stat(w.path); serr != nil {
		t.Fatalf("file should survive a failed remove: %v", serr)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(w.path); !os.IsNotExist(serr) {
		t.Fatal("Cleanup left the file behind")
	}
}
