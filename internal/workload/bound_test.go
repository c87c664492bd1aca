package workload

import (
	"strings"
	"testing"
)

// TestParseSpecInstanceBound: a spec naming more than maxInstances
// instances in all is refused, whether one item or several carry them.
func TestParseSpecInstanceBound(t *testing.T) {
	for _, spec := range []string{"CG x2000", "CG x1000, BBMA x25", "CG x1024, BBMA"} {
		if _, err := ParseSpec(spec); err == nil || !strings.Contains(err.Error(), "exceeds 1024 instances") {
			t.Errorf("ParseSpec(%q): err = %v, want the instance bound", spec, err)
		}
	}
	apps, err := ParseSpec("CG x1000, BBMA x24")
	if err != nil || len(apps) != maxInstances {
		t.Fatalf("1024 instances: %d apps, err %v", len(apps), err)
	}
}
