package spill

import (
	"errors"
	"os"
	"reflect"
	"sync"
	"testing"
)

// readAll reads r to its end, checking that every block but the last
// holds exactly ReadRows rows, and returns the rows.
func readAll(t *testing.T, r *Reader) [][]int32 {
	t.Helper()
	var rows [][]int32
	short := false
	for {
		cols, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if cols == nil {
			return rows
		}
		if short || len(cols[0]) == 0 || len(cols[0]) > ReadRows {
			t.Fatalf("a block of %d rows after %d rows (short block before: %v), want %d but the last", len(cols[0]), len(rows), short, ReadRows)
		}
		short = len(cols[0]) < ReadRows
		for i := range cols[0] {
			row := make([]int32, len(cols))
			for c := range cols {
				row[c] = cols[c][i]
			}
			rows = append(rows, row)
		}
	}
}

// wantSize fails unless w's file holds exactly 4 bytes a row id.
func wantSize(t *testing.T, w *Writer, rows, cols int) {
	t.Helper()
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(w.path)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(4 * rows * cols); fi.Size() != want {
		t.Fatalf("%d rows of %d columns take %d B, want %d", rows, cols, fi.Size(), want)
	}
}

// TestWriteReadRoundtrip writes appends of 1 to 3 000 rows and reads the
// rows back in write order, in blocks of ReadRows rows however the writes
// were cut; the file holds nothing but the rows.
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
	var want [][]int32
	for call, n := range []int{1, 38, 75, 1500, 3000} {
		cols := make([][]int32, 3)
		for c := range cols {
			cols[c] = make([]int32, n)
			for i := range cols[c] {
				cols[c][i] = int32(call*1_000_000 + c*10_000 + i)
			}
		}
		for i := 0; i < n; i++ {
			want = append(want, []int32{cols[0][i], cols[1][i], cols[2][i]})
		}
		if err := w.Append(cols); err != nil {
			t.Fatal(err)
		}
	}
	// An empty append writes nothing.
	if err := w.Append([][]int32{{}, {}, {}}); err != nil {
		t.Fatal(err)
	}
	if got := w.Rows(); got != int64(len(want)) {
		t.Fatalf("Rows = %d, want %d", got, len(want))
	}
	wantSize(t, w, len(want), 3)
	r, err := w.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := readAll(t, r)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %d rows back, want the %d written in order", len(got), len(want))
	}
	if r.RowsRead() != int64(len(want)) || r.BytesRead() != int64(4*3*len(want)) {
		t.Fatalf("reader counted %d rows, %d B; want %d rows, %d B", r.RowsRead(), r.BytesRead(), len(want), 4*3*len(want))
	}
}

// TestReaderNextAllocatesNothing pins a steady-state Next at 0
// allocations and ReadRows rows: once the reader's scratch exists, a
// block read touches no heap, whatever sizes the appends had.
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
	const blocks, rows = 64, 100
	cols := [][]int32{make([]int32, rows), make([]int32, rows)}
	for range blocks * ReadRows / rows {
		if err := w.Append(cols); err != nil {
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
	allocs := testing.AllocsPerRun(blocks-3, func() {
		if got, err := r.Next(); err != nil || len(got[0]) != ReadRows {
			t.Fatalf("Next: %d rows, %v; want %d", len(got[0]), err, ReadRows)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocated %.1f times a block, want 0", allocs)
	}
}

// TestConcurrentAppendContiguous has eight goroutines append to one file
// at once, 100 rows a call (so calls straddle read blocks): each call's
// rows sit in the file contiguously and in order, and the file holds
// nothing else.
func TestConcurrentAppendContiguous(t *testing.T) {
	d, err := NewDirScoped(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("shared", 2)
	if err != nil {
		t.Fatal(err)
	}
	const workers, calls, rows = 8, 50, 100
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			who, seq := make([]int32, rows), make([]int32, rows)
			for c := 0; c < calls; c++ {
				for i := range who {
					who[i], seq[i] = int32(wk), int32(c*rows+i)
				}
				if err := w.Append([][]int32{who, seq}); err != nil {
					t.Error(err)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	wantSize(t, w, workers*calls*rows, 2)
	r, err := w.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := readAll(t, r)
	if len(got) != workers*calls*rows {
		t.Fatalf("read %d rows, want %d", len(got), workers*calls*rows)
	}
	// The file is whole calls back to back: call k fills rows
	// [k*rows, (k+1)*rows), one worker's, numbered from a multiple of rows.
	for at := 0; at < len(got); at += rows {
		who, base := got[at][0], got[at][1]
		if base%rows != 0 {
			t.Fatalf("row %d starts a call at worker %d's row %d", at, who, base)
		}
		for i, row := range got[at : at+rows] {
			if row[0] != who || row[1] != base+int32(i) {
				t.Fatalf("row %d is %v inside worker %d's call from row %d", at+i, row, who, base)
			}
		}
	}
}

// TestReaderFailsMidRow cuts a file two bytes short: the full block before
// the cut reads, and the block that ends mid-row fails with a typed ErrIO.
func TestReaderFailsMidRow(t *testing.T) {
	d, err := NewDirScoped(t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Cleanup()
	w, err := d.NewWriter("cut", 2)
	if err != nil {
		t.Fatal(err)
	}
	const rows = ReadRows + 3
	if err := w.Append([][]int32{make([]int32, rows), make([]int32, rows)}); err != nil {
		t.Fatal(err)
	}
	wantSize(t, w, rows, 2)
	if err := os.Truncate(w.path, 4*2*rows-2); err != nil {
		t.Fatal(err)
	}
	r, err := w.Reader()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if cols, err := r.Next(); err != nil || len(cols[0]) != ReadRows {
		t.Fatalf("first block before the cut: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrIO) {
		t.Fatalf("Next over a row cut short = %v, want ErrIO", err)
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
	if err := w.Append([][]int32{{1, 2}, {3, 4}}); err != nil {
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
	if err := w.Append([][]int32{{7}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(w.path); !os.IsNotExist(err) {
		t.Fatalf("file still exists after Remove: %v", err)
	}
}
