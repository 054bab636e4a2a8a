package core

import (
	"reflect"
	"testing"
)

// TestStatsAddAccumulates sets every counter in the source to a distinct
// value and verifies Add sums them all — via reflection, so a counter
// added to the struct but forgotten in Add fails here instead of silently
// reading zero in a cluster-wide sum.
func TestStatsAddAccumulates(t *testing.T) {
	var s, o Stats
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetUint(uint64(i + 1))
	}
	s.Add(o)
	sv := reflect.ValueOf(&s).Elem()
	for i := 0; i < sv.NumField(); i++ {
		if got, want := sv.Field(i).Uint(), uint64(i+1); got != want {
			t.Errorf("field %s: got %d, want %d (missing from Add?)",
				sv.Type().Field(i).Name, got, want)
		}
	}
}

// TestStatsAddTwiceDoubles checks accumulation on non-zero state.
func TestStatsAddTwiceDoubles(t *testing.T) {
	var s Stats
	o := Stats{ElectionsStarted: 3, LookupsForwarded: 5, Demotions: 7}
	s.Add(o)
	s.Add(o)
	if s.ElectionsStarted != 6 || s.LookupsForwarded != 10 || s.Demotions != 14 {
		t.Fatalf("double add: %+v", s)
	}
}
