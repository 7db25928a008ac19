package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bfcbo/internal/obs"
)

// -trace-out validates what it is about to write: a well-formed trace lands
// on disk and passes the checker again, a malformed one (here a span that
// ends before it starts) is an error and leaves no file behind.
func TestWriteTraceValidates(t *testing.T) {
	start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	good := obs.NewTrace(2)
	good.QueryID, good.Label = 1, "Q12"
	good.Add("query", "query", 0, start, time.Millisecond)
	path := filepath.Join(t.TempDir(), "good.json")
	if err := writeTrace(path, []*obs.Trace{good}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChrome(data); err != nil {
		t.Fatalf("written trace does not validate: %v", err)
	}

	bad := obs.NewTrace(2)
	bad.Add("query", "query", 0, start, -time.Millisecond)
	path = filepath.Join(t.TempDir(), "bad.json")
	err = writeTrace(path, []*obs.Trace{good, bad})
	if err == nil || !strings.Contains(err.Error(), "bad dur") {
		t.Fatalf("malformed trace: error = %v, want the validator's bad-dur report", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("malformed trace still written to %s (stat: %v)", path, statErr)
	}
}
