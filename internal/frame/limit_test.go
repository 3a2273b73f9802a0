package frame

import (
	"math"
	"testing"
)

// TestFramableLimit pins the writer-side length bound without
// allocating four gigabytes to trip it.
func TestFramableLimit(t *testing.T) {
	if math.MaxInt <= math.MaxUint32 {
		t.Skip("no slice can exceed the prefix on a 32-bit int")
	}
	limit := uint64(math.MaxUint32) // a variable: the conversions below must compile on 32-bit
	if err := framable("section", int(limit)); err != nil {
		t.Errorf("a MaxUint32-byte section must be framable: %v", err)
	}
	if err := framable("section", int(limit+1)); err == nil {
		t.Error("a section one byte over MaxUint32 would be framed with a wrapped length")
	}
}
