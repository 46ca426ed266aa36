// Package audit provides the field-enumeration guard used by the
// packages that implement Snapshot/Restore/Reset: a new struct field
// compiles cleanly while silently escaping every copy path, so each
// snapshotted struct pins its field set in a test. Adding a field
// fails that test until the field is (a) handled by — or deliberately
// excluded from — Snapshot, Restore, and Reset, and (b) classified in
// the test's field list with a note saying which.
//
// NoMaps is the same kind of guard for one property of those structs:
// simulated state and its snapshots hold no Go map, so lookups do not
// hash, cuts do not iterate and re-insert, and nothing near simulated
// state can come to depend on a randomised iteration order.
package audit

import (
	"reflect"
	"slices"
	"sort"
	"testing"
)

// Fields checks the concrete struct type of v against known, a map
// from field name to a short note on how Snapshot/Restore/Reset treat
// it. Unclassified fields and stale entries (renamed or removed
// fields) both fail the test.
func Fields(t *testing.T, v any, known map[string]string) {
	t.Helper()
	tp := reflect.TypeOf(v)
	for tp.Kind() == reflect.Pointer {
		tp = tp.Elem()
	}
	if tp.Kind() != reflect.Struct {
		t.Fatalf("audit.Fields: %v is not a struct", tp)
	}
	have := make(map[string]bool, tp.NumField())
	for i := 0; i < tp.NumField(); i++ {
		name := tp.Field(i).Name
		have[name] = true
		if _, ok := known[name]; !ok {
			t.Errorf("%v has unclassified field %q: handle it in Snapshot/Restore/Reset (or note why it is excluded) and add it to this audit", tp, name)
		}
	}
	names := make([]string, 0, len(known))
	for name := range known {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !have[name] {
			t.Errorf("%v audit lists field %q which no longer exists: update the audit (and check the copy paths for the rename)", tp, name)
		}
	}
}

// NoMaps fails the test for every Go map reachable from v's type
// through pointers, slices, arrays and struct fields, naming the path to
// it. Interfaces and funcs hide what is behind them and end the walk:
// audit the concrete types they carry separately. Fields listed in
// except, as "Type.field", are not entered.
func NoMaps(t *testing.T, v any, except ...string) {
	t.Helper()
	noMaps(t, reflect.TypeOf(v), reflect.TypeOf(v).String(), except, map[reflect.Type]bool{})
}

func noMaps(t *testing.T, tp reflect.Type, path string, except []string, seen map[reflect.Type]bool) {
	t.Helper()
	switch tp.Kind() {
	case reflect.Map:
		t.Errorf("%s is a Go map (%v): keep keyed simulated state in a table.Table or a slice, or name the field an exception", path, tp)
	case reflect.Pointer, reflect.Slice, reflect.Array:
		noMaps(t, tp.Elem(), path, except, seen)
	case reflect.Struct:
		if seen[tp] {
			return
		}
		seen[tp] = true
		for i := 0; i < tp.NumField(); i++ {
			if f := tp.Field(i); !slices.Contains(except, tp.Name()+"."+f.Name) {
				noMaps(t, f.Type, path+"."+f.Name, except, seen)
			}
		}
	}
}
