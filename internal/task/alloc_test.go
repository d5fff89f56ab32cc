//go:build !race

package task

import "testing"

// TestTimeAndCritJSONAllocationFree keeps the per-field decoders of a
// parsed set off the heap for the canonical forms.
func TestTimeAndCritJSONAllocationFree(t *testing.T) {
	num, inf, lo, hi := []byte("123456"), []byte(`"inf"`), []byte(`"LO"`), []byte(`"HI"`)
	var tt Time
	var c Crit
	allocs := testing.AllocsPerRun(100, func() {
		if tt.UnmarshalJSON(num) != nil || tt.UnmarshalJSON(inf) != nil ||
			c.UnmarshalJSON(lo) != nil || c.UnmarshalJSON(hi) != nil {
			t.Fatal("canonical form rejected")
		}
	})
	if allocs != 0 {
		t.Errorf("decoding canonical Time/Crit allocates %v times, want 0", allocs)
	}
}
