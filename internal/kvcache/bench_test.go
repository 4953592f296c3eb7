package kvcache

import "testing"

// BenchmarkAllocateFree measures the admission-path cost the engine
// pays per prefill batch member.
func BenchmarkAllocateFree(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Allocate(i, 300); err != nil {
			b.Fatal(err)
		}
		m.Free(i)
	}
}

// BenchmarkAppend measures the per-decode-token growth path.
func BenchmarkAppend(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<30, 16)
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Allocate(1, 16); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Append(1, 1); err != nil {
			b.StopTimer()
			m.Free(1)
			_ = m.Allocate(1, 16)
			b.StartTimer()
		}
	}
}

// BenchmarkEvictMostRecent measures the recompute path under pressure.
func BenchmarkEvictMostRecent(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, _ := NewManager(16*1024, 16)
		for id := 0; id < 64; id++ {
			_ = m.Allocate(id, 256)
		}
		b.StartTimer()
		m.EvictMostRecent(512, nil)
	}
}

// BenchmarkAllocateSharedHit measures the warm-chain admission path —
// what a prefix-cache hit costs relative to a cold Allocate.
func BenchmarkAllocateSharedHit(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.AllocateShared(0, 512, 1, 512); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if _, err := m.AllocateShared(i, 512, 1, 512); err != nil {
			b.Fatal(err)
		}
		m.Free(i)
	}
}

// BenchmarkMatchPrefix measures the router's warmth probe.
func BenchmarkMatchPrefix(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.AllocateShared(0, 1024, 1, 1024); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.MatchPrefix(1, 1024) != 1024 {
			b.Fatal("cold probe")
		}
	}
}

// BenchmarkMatchPrefixMiss measures the router's warmth probe on a
// replica that holds none of the group's chain — the common case,
// since each pick probes every replica.
func BenchmarkMatchPrefixMiss(b *testing.B) {
	b.ReportAllocs()
	m, err := NewManager(1<<24, 16)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.AllocateShared(0, 1024, 1, 1024); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.MatchPrefix(2, 1024) != 0 {
			b.Fatal("foreign group hit")
		}
	}
}

// The prefix probes and the admission query walk the chain without
// allocating, hit or miss.
func TestSharedProbesAllocateNothing(t *testing.T) {
	m := mustManager(t, 1<<20, 16)
	if _, err := m.AllocateShared(0, 1024, 1, 1024); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"MatchPrefix hit", func() { m.MatchPrefix(1, 1024) }},
		{"MatchPrefix miss", func() { m.MatchPrefix(2, 1024) }},
		{"CanAllocateShared hit", func() { m.CanAllocateShared(2048, 1, 1024) }},
		{"CanAllocateShared miss", func() { m.CanAllocateShared(2048, 2, 1024) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
}
