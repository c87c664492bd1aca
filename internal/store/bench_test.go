package store

import (
	"bytes"
	"strconv"
	"testing"
)

// benchBody is about the size of a rendered one-cell response.
var benchBody = append(bytes.Repeat([]byte(`{"slowdown":1.0625,"run":17},`), 14), '\n')

// BenchmarkStoreGet prices a tier-2 hit: read the entry file, verify
// its embedded key and body digest, and refresh its recency.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	s.Put("k", benchBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, tier, ok := s.Get("k"); !ok || tier != TierDisk {
			b.Fatalf("Get = tier %v ok %v, want a disk hit", tier, ok)
		}
	}
}

// BenchmarkStorePut prices a tier-2 write of a fresh key: probe for an
// incumbent, encode, then publish through a temp file and rename.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(Config{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, b.N)
	for i := range keys {
		keys[i] = "k" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, k := range keys {
		s.Put(k, benchBody)
	}
	b.StopTimer()
	if puts := s.Stats().Disk.Puts; puts != uint64(b.N) {
		b.Fatalf("%d puts written, want %d", puts, b.N)
	}
}
