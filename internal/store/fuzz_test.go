package store

import (
	"bytes"
	"testing"
)

// FuzzDecode checks verify-on-read, the store's guard against entry
// files that other processes write into the shared tier: decode either
// rejects an entry or returns a body that re-encodes to exactly the
// bytes it read, so no corruption can come back as a different body.
// The seeds are valid entries and the corruptions
// TestStoreVerifyFailIsMiss makes by hand.
func FuzzDecode(f *testing.F) {
	for _, tc := range []struct{ key, body string }{
		{"k1", "the true body\n"},
		{"k2", "another body\n"},
		{"", ""},
	} {
		data := encode(tc.key, []byte(tc.body))
		f.Add(data, tc.key)
		flipped := bytes.Clone(data)
		flipped[len(flipped)-2] ^= 0xff // a flipped body byte
		f.Add(flipped, tc.key)
		f.Add(data[:len(data)-4], tc.key) // truncated
	}
	f.Add(encode("k3", []byte("body three\n")), "k4") // keyed wrong
	f.Fuzz(func(t *testing.T, data []byte, key string) {
		body, ok := decode(data, key)
		if ok && !bytes.Equal(encode(key, body), data) {
			t.Fatalf("decode accepted %q under key %q as body %q, which encodes differently", data, key, body)
		}
	})
}
