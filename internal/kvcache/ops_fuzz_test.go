package kvcache

import (
	"math/rand"
	"slices"
	"testing"
)

// refMatchPrefix is the full-walk reference for MatchPrefix: build the
// whole key chain, then probe it from the root.
func refMatchPrefix(m *Manager, group, prefixTokens int) int {
	hit := 0
	for _, k := range chainKeys(group, prefixTokens/m.blockSize) {
		if _, ok := m.shared[k]; !ok {
			break
		}
		hit++
	}
	return hit * m.blockSize
}

// refChainKeys is a copy of the chain-key loop as it was before the
// walk became lazy; chainKeys must reproduce it bit for bit, since
// exports carry the keys.
func refChainKeys(group, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	keys := make([]uint64, n)
	h := uint64(group)*0x9E3779B97F4A7C15 + 0x85EBCA77C2B2AE63
	for i := range keys {
		h += uint64(i) + 0x9E3779B97F4A7C15
		h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
		h = (h ^ (h >> 27)) * 0x94D049BB133111EB
		h ^= h >> 31
		keys[i] = h
	}
	return keys
}

func TestChainKeysMatchReference(t *testing.T) {
	for _, group := range []int{0, 1, 7, 399, 1 << 40, -3} {
		for _, n := range []int{0, 1, 2, 17, 64} {
			if got, want := chainKeys(group, n), refChainKeys(group, n); !slices.Equal(got, want) {
				t.Fatalf("chainKeys(%d, %d) = %x, reference %x", group, n, got, want)
			}
		}
	}
}

// checkManager asserts the manager's accounting against its own
// tables: used and reclaimable agree with the blocks, each block's
// refcount is the number of chains pointing at it, every pointed-at
// block is the one m.shared holds under its key, and MatchPrefix
// agrees with the full-walk reference.
func checkManager(t *testing.T, m *Manager, groups, maxPrefix int) {
	t.Helper()
	private, live := 0, 0
	refs := map[*sharedBlock]int{}
	for i, s := range m.seqs {
		if s.arrival == 0 {
			continue
		}
		live++
		private += s.blocks
		if s.blocks+len(s.chain) != m.BlocksFor(s.tokens) {
			t.Fatalf("seq %d: %d private + %d shared blocks for %d tokens", m.base+i, s.blocks, len(s.chain), s.tokens)
		}
		for _, b := range s.chain {
			if m.shared[b.key] != b {
				t.Fatalf("seq %d points at block %x, which m.shared does not hold", m.base+i, b.key)
			}
			refs[b]++
		}
	}
	if live != m.Live() {
		t.Fatalf("live = %d, table holds %d", m.Live(), live)
	}
	if m.UsedBlocks() != private+len(m.shared) {
		t.Fatalf("used = %d, want %d private + %d shared", m.UsedBlocks(), private, len(m.shared))
	}
	if m.UsedBlocks() > m.CapacityBlocks() {
		t.Fatalf("used %d > capacity %d", m.UsedBlocks(), m.CapacityBlocks())
	}
	warm := 0
	for k, b := range m.shared {
		if b.key != k {
			t.Fatalf("block stored under %x carries key %x", k, b.key)
		}
		if b.refs != refs[b] {
			t.Fatalf("block %x: refs = %d, %d chains point at it", k, b.refs, refs[b])
		}
		if b.refs == 0 {
			warm++
		}
	}
	if m.WarmBlocks() != warm {
		t.Fatalf("reclaimable = %d, %d blocks have no refs", m.WarmBlocks(), warm)
	}
	for g := 0; g < groups; g++ {
		for p := 0; p <= maxPrefix; p += m.blockSize/2 + 1 {
			if got, want := m.MatchPrefix(g, p), refMatchPrefix(m, g, p); got != want {
				t.Fatalf("MatchPrefix(%d, %d) = %d, reference %d", g, p, got, want)
			}
		}
	}
}

// opObs captures what a refused operation must leave unchanged.
type opObs struct {
	used, warm, shared, live int
	stats                    ShareStats
}

func observeOps(m *Manager) opObs {
	return opObs{m.UsedBlocks(), m.WarmBlocks(), m.SharedBlocks(), m.Live(), m.Stats()}
}

// FuzzManagerOps drives seeded random sequences of every manager
// operation under memory pressure and checks the accounting after each
// one. Admission queries must answer exactly as the operation they
// predict, and a refused AllocateShared or ImportKV must change
// nothing.
func FuzzManagerOps(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(1))
	f.Add(int64(2), uint8(8), uint8(0))
	f.Add(int64(3), uint8(64), uint8(2))
	f.Add(int64(4), uint8(12), uint8(1))
	f.Add(int64(5), uint8(40), uint8(0))
	f.Add(int64(6), uint8(200), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, capBlocks, bsSel uint8) {
		const groups, ops = 4, 300
		bs := []int{1, 4, 16}[int(bsSel)%3]
		blocks := int(capBlocks)%96 + 4
		m := mustManager(t, blocks*bs, bs)
		maxTokens := 3 * blocks * bs / 4
		rng := rand.New(rand.NewSource(seed))
		var live []int
		var parked []ExportedSeq
		next := 0
		pick := func() (int, int, bool) {
			if len(live) == 0 {
				return 0, 0, false
			}
			i := rng.Intn(len(live))
			return i, live[i], true
		}
		for op := 0; op < ops; op++ {
			switch rng.Intn(8) {
			case 0, 1: // AllocateShared
				tokens := rng.Intn(maxTokens) + 1
				group := rng.Intn(groups)
				prefix := rng.Intn(tokens + bs)
				can := m.CanAllocateShared(tokens, group, prefix)
				wantHit := m.MatchPrefix(group, min(prefix, tokens))
				before := observeOps(m)
				hit, err := m.AllocateShared(next, tokens, group, prefix)
				if can != (err == nil) {
					t.Fatalf("op %d: CanAllocateShared = %v, AllocateShared error %v", op, can, err)
				}
				if err != nil {
					if got := observeOps(m); got != before {
						t.Fatalf("op %d: refused AllocateShared changed %+v to %+v", op, before, got)
					}
					break
				}
				if hit != wantHit {
					t.Fatalf("op %d: AllocateShared hit %d tokens, MatchPrefix before it %d", op, hit, wantHit)
				}
				n := min(prefix, tokens) / bs
				ex, err := m.SnapshotKV(next)
				if err != nil {
					t.Fatal(err)
				}
				if want := chainKeys(group, n); !slices.Equal(ex.Keys, want) {
					t.Fatalf("op %d: fresh shared allocation exports keys %x, want chainKeys %x", op, ex.Keys, want)
				}
				live = append(live, next)
				next++
			case 2: // Allocate
				tokens := rng.Intn(maxTokens) + 1
				can := m.CanAllocate(tokens)
				if err := m.Allocate(next, tokens); can != (err == nil) {
					t.Fatalf("op %d: CanAllocate = %v, Allocate error %v", op, can, err)
				} else if err == nil {
					live = append(live, next)
					next++
				}
			case 3: // Append
				if _, id, ok := pick(); ok {
					n := rng.Intn(2*bs) + 1
					can := m.CanAppend(id, n)
					if err := m.Append(id, n); can != (err == nil) {
						t.Fatalf("op %d: CanAppend = %v, Append error %v", op, can, err)
					}
				}
			case 4: // Fork
				if _, id, ok := pick(); ok {
					if err := m.Fork(id, next); err != nil {
						t.Fatal(err)
					}
					live = append(live, next)
					next++
				}
			case 5: // Free
				if i, id, ok := pick(); ok {
					m.Free(id)
					live = slices.Delete(live, i, i+1)
				}
			case 6: // ExportKV, or ImportKV of a parked export
				if len(parked) > 0 && rng.Intn(2) == 0 {
					ex := parked[0]
					can := m.CanImport(ex)
					before := observeOps(m)
					_, err := m.ImportKV(next, ex)
					if can != (err == nil) {
						t.Fatalf("op %d: CanImport = %v, ImportKV error %v", op, can, err)
					}
					if err != nil {
						if got := observeOps(m); got != before {
							t.Fatalf("op %d: refused ImportKV changed %+v to %+v", op, before, got)
						}
						break
					}
					if got, err := m.SnapshotKV(next); err != nil || !slices.Equal(got.Keys, ex.Keys) {
						t.Fatalf("op %d: imported sequence exports keys %x (err %v), want %x", op, got.Keys, err, ex.Keys)
					}
					parked = parked[1:]
					live = append(live, next)
					next++
				} else if i, id, ok := pick(); ok {
					ex, err := m.ExportKV(id)
					if err != nil {
						t.Fatal(err)
					}
					live = slices.Delete(live, i, i+1)
					parked = append(parked, ex)
				}
			case 7: // EvictMostRecent
				for _, id := range m.EvictMostRecent(rng.Intn(blocks)+1, nil) {
					live = slices.DeleteFunc(live, func(x int) bool { return x == id })
				}
			}
			checkManager(t, m, groups, maxTokens)
		}
	})
}
