package bfcbo

import (
	"reflect"
	"slices"
	"testing"
)

// Config is the engine's front door: every leaf field, nested structs
// included, is a knob a caller can set. A new field fails this test, so
// a knob has to be added here, in the open, with the caller that needs it.
func TestConfigSurface(t *testing.T) {
	var got []string
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", f.Type)
				continue
			}
			got = append(got, prefix+f.Name)
		}
	}
	walk("", reflect.TypeFor[Config]())
	want := []string{
		"ScaleFactor", "Seed", "DOP", "MemBudget", "SpillDir",
		"MaxConcurrent", "SlowQueryLog", "WorkloadHistory",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("settable Config fields (%d):\n  %v\nwant (%d):\n  %v", len(got), got, len(want), want)
	}
}
