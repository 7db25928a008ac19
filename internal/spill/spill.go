// Package spill is the executor's spill-file subsystem: run files whose
// format matches the executor's late-materialization row sets (a fixed
// number of int32 row-id columns per file), plus the temp-directory
// lifecycle that guarantees a run — successful, failed, or cancelled —
// leaves no files behind.
//
// File format: the file's rows back to back, each
//
//	int32 × cols (little-endian), one row id per column
//
// with no header, framing or row count, so a file of r rows is exactly
// 4·r·cols bytes however its writes were cut. Append writes one call's
// rows contiguously; Reader.Next reads them back at most ReadRows at a
// time, as columns.
//
// The column count is fixed per file and agreed between writer and reader
// (it is the relation count of the spilled row set, in ascending relation
// order). Keys are never stored — the engine's rows are base-table row ids,
// so join keys and sort keys are re-derived from the columnar store on
// read-back, which keeps spilled data at 4 bytes per (row, relation).
package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"

	"bfcbo/internal/faults"
)

// ReadRows is the most rows one Reader.Next returns.
const ReadRows = 1024

// Typed spill failures. Every I/O error leaving this package wraps one
// of these sentinels (plus the run-file path and the underlying cause),
// so the executor can fail exactly the owning query with a
// distinguishable error instead of whatever os happened to report.
var (
	// ErrIO marks a spill read/write/flush/remove failure.
	ErrIO = errors.New("spill: I/O error")
	// ErrDiskFull marks an out-of-space failure (real ENOSPC or the
	// injector's byte-budget site).
	ErrDiskFull = errors.New("spill: disk full")
)

// sentinelFor classifies a raw cause as disk-full or generic I/O.
func sentinelFor(cause error) error {
	if errors.Is(cause, syscall.ENOSPC) {
		return ErrDiskFull
	}
	var f *faults.Fault
	if errors.As(cause, &f) && f.Site == faults.SpillDiskFull {
		return ErrDiskFull
	}
	return ErrIO
}

// Dir owns one run's temp directory. It is created lazily on the first
// spill and removed — with everything in it — by Cleanup, which the
// executor defers unconditionally so cancel and error paths cannot leak
// files.
type Dir struct {
	mu      sync.Mutex
	path    string
	seq     atomic.Int64
	gone    bool
	writers []*Writer
}

// NewDirScoped creates a fresh spill directory under parent
// (""= os.TempDir()) with a scope tag, when non-empty, embedded in its
// name — the executor passes its scheduler query ID (e.g. "q17"), giving
// every admitted query its own spill subdirectory under SpillDir. Uniqueness
// already comes from MkdirTemp; the scope makes the per-query ownership
// explicit, so concurrent spilling queries can never race each other's
// cleanup and leaked files are attributable.
func NewDirScoped(parent, scope string) (*Dir, error) {
	if parent == "" {
		parent = os.TempDir()
	}
	pattern := "bfcbo-spill-*"
	if scope != "" {
		pattern = fmt.Sprintf("bfcbo-%s-spill-*", scope)
	}
	path, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return nil, fmt.Errorf("spill: create dir: %w", err)
	}
	return &Dir{path: path}, nil
}

// Cleanup removes the directory and every spill file in it, closing any
// writer handles still open (a cancelled run abandons writers mid-route;
// their descriptors must not linger until the GC finalizer). Idempotent;
// safe after partial writes.
func (d *Dir) Cleanup() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.gone {
		return nil
	}
	d.gone = true
	for _, w := range d.writers {
		w.abandon()
	}
	d.writers = nil
	return os.RemoveAll(d.path)
}

// NewWriter creates a spill file for rows of cols columns. The name
// fragment is embedded in the file name for debuggability.
func (d *Dir) NewWriter(name string, cols int) (*Writer, error) {
	if cols <= 0 {
		return nil, fmt.Errorf("spill: writer needs at least one column, got %d", cols)
	}
	d.mu.Lock()
	gone := d.gone
	d.mu.Unlock()
	if gone {
		return nil, fmt.Errorf("spill: directory already cleaned up")
	}
	path := filepath.Join(d.path, fmt.Sprintf("%s-%d.spill", name, d.seq.Add(1)))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("spill: create %s: %w", path, err)
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<16), cols: cols, path: path}
	d.mu.Lock()
	if d.gone { // lost a race with Cleanup
		d.mu.Unlock()
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("spill: directory already cleaned up")
	}
	d.writers = append(d.writers, w)
	d.mu.Unlock()
	return w, nil
}

// Writer appends rows to one spill file. Append is safe for concurrent
// use: one call's rows go to the file contiguously, under the writer's
// lock, so workers of one pipeline may share a partition file.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	cols   int
	path   string
	rows   int64
	closed bool
	werr   error // first write/flush error; poisons the writer
}

// fail poisons the writer after a write-path error. A partial run file
// is unreadable, so the unwind closes the handle and removes the file
// immediately rather than leaving it for Dir.Cleanup; any close/remove
// failure is folded into the returned error after the first cause,
// which is wrapped with the run-file path and a typed sentinel.
// Callers must hold w.mu.
func (w *Writer) fail(op string, cause error) error {
	err := fmt.Errorf("spill: %s %s: %w: %w", op, w.path, sentinelFor(cause), cause)
	if !w.closed {
		w.closed = true
		if cerr := w.f.Close(); cerr != nil {
			err = fmt.Errorf("%w; close: %v", err, cerr)
		}
	}
	if rerr := os.Remove(w.path); rerr != nil && !os.IsNotExist(rerr) {
		err = fmt.Errorf("%w; remove partial run file: %v", err, rerr)
	}
	w.werr = err
	return err
}

// Rows returns the total rows appended so far.
func (w *Writer) Rows() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rows
}

// Append writes the rows of cols, cols column slices of equal length,
// one after another. An empty call writes nothing.
func (w *Writer) Append(cols [][]int32) error {
	if len(cols) != w.cols {
		return fmt.Errorf("spill: append of %d columns to %s, which has %d", len(cols), w.path, w.cols)
	}
	n := len(cols[0])
	if n == 0 {
		return nil
	}
	for _, c := range cols[1:] {
		if len(c) != n {
			return fmt.Errorf("spill: ragged append (%d vs %d rows) to %s", len(c), n, w.path)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return w.werr
	}
	if w.closed {
		return fmt.Errorf("spill: append to closed writer %s", w.path)
	}
	if fault := faults.Hit(faults.SpillWrite); fault != nil {
		return w.fail("write", fault)
	}
	if fault := faults.ChargeSpillBytes(int64(4 * n * w.cols)); fault != nil {
		return w.fail("write", fault)
	}
	// Rows are encoded straight into the buffered writer's free space,
	// as many whole rows as it holds at a time.
	rowBytes := 4 * w.cols
	for i := 0; i < n; {
		buf := w.bw.AvailableBuffer()
		if cap(buf) < rowBytes {
			if err := w.bw.Flush(); err != nil {
				return w.fail("write", err)
			}
			continue
		}
		for ; i < n && len(buf)+rowBytes <= cap(buf); i++ {
			for _, c := range cols {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(c[i]))
			}
		}
		if _, err := w.bw.Write(buf); err != nil {
			return w.fail("write", err)
		}
	}
	w.rows += int64(n)
	return nil
}

// Finish flushes and closes the write handle. The file stays on disk for
// readers until the owning Dir is cleaned up (or Remove is called). A
// flush/close failure unwinds the partial file like a write error.
func (w *Writer) Finish() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return w.werr
	}
	if w.closed {
		return nil
	}
	if fault := faults.Hit(faults.SpillSync); fault != nil {
		return w.fail("sync", fault)
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail("flush", err) // fail closes the handle
	}
	w.closed = true
	if err := w.f.Close(); err != nil {
		return w.fail("close", err) // already closed; fail just removes
	}
	return nil
}

// Remove deletes the file (after Finish). Used to reclaim disk space as
// soon as a partition or run has been consumed; Cleanup would get it
// eventually anyway. A Finish failure already unwound the file and is
// propagated; a removal failure is reported typed, and Dir.Cleanup
// remains the backstop for the still-present file.
func (w *Writer) Remove() error {
	if err := w.Finish(); err != nil {
		return err
	}
	if fault := faults.Hit(faults.SpillRemove); fault != nil {
		return fmt.Errorf("spill: remove %s: %w: %w", w.path, ErrIO, fault)
	}
	if err := os.Remove(w.path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("spill: remove %s: %w: %w", w.path, sentinelFor(err), err)
	}
	return nil
}

// abandon closes the file handle without flushing — the file is about to
// be deleted by Cleanup, only the descriptor matters.
func (w *Writer) abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.closed = true
		w.f.Close()
	}
}

// Reader streams the rows of a finished spill file in write order, at
// most ReadRows at a time.
type Reader struct {
	f       *os.File
	br      *bufio.Reader
	cols    int
	path    string
	scratch []byte
	bufs    [][]int32
	rows    int64
}

// Reader opens the writer's file for reading. Finish is implied.
func (w *Writer) Reader() (*Reader, error) {
	if err := w.Finish(); err != nil {
		return nil, err
	}
	return OpenReader(w.path, w.cols)
}

// OpenReader opens a spill file holding rows of cols columns.
func OpenReader(path string, cols int) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spill: open %s: %w: %w", path, ErrIO, err)
	}
	return &Reader{f: f, br: bufio.NewReaderSize(f, 1<<16), cols: cols, path: path}, nil
}

// Next returns the columns of the next rows, at most ReadRows of them, or
// (nil, nil) at end of file. A file that ends mid-row fails. The returned
// slices are reused by the following Next call; callers that retain rows
// must copy them out (appending into a RowSet copies).
func (r *Reader) Next() ([][]int32, error) {
	if fault := faults.Hit(faults.SpillRead); fault != nil {
		return nil, fmt.Errorf("spill: read %s: %w: %w", r.path, ErrIO, fault)
	}
	rowBytes := 4 * r.cols
	if r.bufs == nil {
		r.scratch = make([]byte, ReadRows*rowBytes)
		r.bufs = make([][]int32, r.cols)
		for c := range r.bufs {
			r.bufs[c] = make([]int32, ReadRows)
		}
	}
	got, err := io.ReadFull(r.br, r.scratch)
	if err == io.EOF {
		return nil, nil
	}
	if err != nil && (err != io.ErrUnexpectedEOF || got%rowBytes != 0) {
		return nil, fmt.Errorf("spill: read %s: %w: %w", r.path, ErrIO, err)
	}
	n := got / rowBytes
	for c := range r.bufs {
		col := r.bufs[c][:n]
		for i := range col {
			col[i] = int32(binary.LittleEndian.Uint32(r.scratch[i*rowBytes+4*c:]))
		}
		r.bufs[c] = col
	}
	r.rows += int64(n)
	return r.bufs, nil
}

// BytesRead returns the encoded bytes decoded so far: 4 a row id.
func (r *Reader) BytesRead() int64 { return 4 * r.rows * int64(r.cols) }

// RowsRead returns the rows decoded so far.
func (r *Reader) RowsRead() int64 { return r.rows }

// Close releases the read handle.
func (r *Reader) Close() error { return r.f.Close() }
