package busaware

import (
	"testing"

	"busaware/internal/server"
)

// TestUnknownPolicyMessages: the facade and the HTTP API share one
// policy table and each prefix its refusal with their own name.
func TestUnknownPolicyMessages(t *testing.T) {
	const want = `unknown policy "fifo" (want latest, window, ewma, oracle, optimal, linux, gang or rr)`
	if _, err := NewScheduler("fifo", PaperMachine(), 1); err == nil || err.Error() != "busaware: "+want {
		t.Errorf("NewScheduler error = %v", err)
	}
	if _, err := server.CanonicalKey(server.Request{Apps: "CG", Policy: "fifo"}); err == nil || err.Error() != "server: "+want {
		t.Errorf("server error = %v", err)
	}
}
