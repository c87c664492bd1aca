package scenario

import (
	"strings"
	"testing"
)

// TestMaterializeTickBound: a pattern that walks more than
// maxChurnTicks ticks is refused before the walk, however few events
// it would emit.
func TestMaterializeTickBound(t *testing.T) {
	_, err := Materialize(ChurnSpec{Pattern: "step:2s@1", TickUsec: 1})
	if err == nil || !strings.Contains(err.Error(), "ticks") {
		t.Fatalf("2,000,001 ticks: err = %v, want the tick bound", err)
	}
	if _, err := Materialize(ChurnSpec{Pattern: "step:1s@1", TickUsec: 1}); err != nil {
		t.Fatalf("1,000,001 ticks: %v", err)
	}
}
