package spill

import (
	"os"
	"sync"
	"testing"
)

func TestWriteReadRoundtrip(t *testing.T) {
	d, err := NewDirScoped(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("part", 3)
	if err != nil {
		t.Fatal(err)
	}
	var want [][3]int32
	for chunk := 0; chunk < 5; chunk++ {
		n := 1 + chunk*37
		cols := make([][]int32, 3)
		for c := range cols {
			cols[c] = make([]int32, n)
			for i := range cols[c] {
				v := int32(chunk*1_000_000 + c*10_000 + i)
				cols[c][i] = v
			}
		}
		for i := 0; i < n; i++ {
			want = append(want, [3]int32{cols[0][i], cols[1][i], cols[2][i]})
		}
		if err := w.AppendChunk(cols); err != nil {
			t.Fatal(err)
		}
	}
	// Empty chunks are skipped, not written.
	if err := w.AppendChunk([][]int32{{}, {}, {}}); err != nil {
		t.Fatal(err)
	}
	if got := w.Rows(); got != int64(len(want)) {
		t.Fatalf("Rows = %d, want %d", got, len(want))
	}
	r, err := w.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got [][3]int32
	for {
		cols, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if cols == nil {
			break
		}
		for i := range cols[0] {
			got = append(got, [3]int32{cols[0][i], cols[1][i], cols[2][i]})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("read %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestReaderNextAllocatesNothing pins a steady-state Next at 0
// allocations: once the reader's scratch is as large as the chunks, a
// chunk read — header included — touches no heap.
func TestReaderNextAllocatesNothing(t *testing.T) {
	d, err := NewDirScoped(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("part", 2)
	if err != nil {
		t.Fatal(err)
	}
	const chunks, rows = 64, 256
	cols := [][]int32{make([]int32, rows), make([]int32, rows)}
	for range chunks {
		if err := w.AppendChunk(cols); err != nil {
			t.Fatal(err)
		}
	}
	r, err := w.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Next(); err != nil { // sizes the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(chunks-2, func() {
		if got, err := r.Next(); err != nil || len(got[0]) != rows {
			t.Fatalf("Next: %d rows, %v", len(got[0]), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocated %.1f times a chunk, want 0", allocs)
	}
}

func TestConcurrentAppendChunk(t *testing.T) {
	d, err := NewDirScoped(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("shared", 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers, chunks, rows = 8, 50, 64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			col := make([]int32, rows)
			for c := 0; c < chunks; c++ {
				for i := range col {
					col[i] = int32(wk)
				}
				if err := w.AppendChunk([][]int32{col}); err != nil {
					t.Error(err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	r, err := w.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	total := 0
	for {
		cols, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if cols == nil {
			break
		}
		// Chunks are atomic: every row of a chunk carries one worker's id.
		first := cols[0][0]
		for _, v := range cols[0] {
			if v != first {
				t.Fatalf("chunk mixes workers %d and %d", first, v)
			}
		}
		total += len(cols[0])
	}
	if total != workers*chunks*rows {
		t.Fatalf("read %d rows, want %d", total, workers*chunks*rows)
	}
}

func TestCleanupRemovesEverything(t *testing.T) {
	parent := t.TempDir()
	d, err := NewDirScoped(parent, "")
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.NewWriter("x", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendChunk([][]int32{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	// Cleanup without Finish: the open handle must not preserve the dir.
	if err := d.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(d.path); !os.IsNotExist(err) {
		t.Fatalf("spill dir still exists after Cleanup: %v", err)
	}
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("parent not empty after Cleanup: %v", ents)
	}
	if err := d.Cleanup(); err != nil {
		t.Fatalf("second Cleanup: %v", err)
	}
	// New writers after Cleanup must fail instead of resurrecting the dir.
	if _, err := d.NewWriter("late", 1); err == nil {
		t.Fatal("NewWriter after Cleanup should fail")
	}
}

func TestWriterRemove(t *testing.T) {
	d, err := NewDirScoped(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("gone", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendChunk([][]int32{{7}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(w.path); !os.IsNotExist(err) {
		t.Fatalf("file still exists after Remove: %v", err)
	}
}
