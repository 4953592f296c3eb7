package kvcache

import "testing"

// Interleaved allocation and free must keep eviction strictly
// most-recent-first in allocation order, with a re-allocated id taking
// its new, refreshed recency.
func TestEvictionOrderInterleavedAllocFree(t *testing.T) {
	m := mustManager(t, 16*10, 16) // 10 blocks
	for _, id := range []int{1, 2, 3} {
		if err := m.Allocate(id, 32); err != nil { // 2 blocks each
			t.Fatal(err)
		}
	}
	m.Free(2)
	for _, id := range []int{4, 5, 2} { // 2 comes back as the newest
		if err := m.Allocate(id, 32); err != nil {
			t.Fatal(err)
		}
	}
	evicted := m.EvictMostRecent(6, nil)
	if len(evicted) != 3 || evicted[0] != 2 || evicted[1] != 5 || evicted[2] != 4 {
		t.Fatalf("evicted = %v, want [2 5 4] (most recent first)", evicted)
	}
	if !m.Has(1) || !m.Has(3) {
		t.Error("older sequences evicted out of order")
	}
	if m.FreeBlocks() < 6 {
		t.Errorf("free = %d after eviction", m.FreeBlocks())
	}
}

// Two sequences sharing a prefix pay for the shared blocks once; the
// second allocation reports the full hit, and freeing both leaves the
// chain warm and matchable.
func TestAllocateSharedHitMiss(t *testing.T) {
	m := mustManager(t, 16*100, 16)
	hit, err := m.AllocateShared(1, 100, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 0 {
		t.Errorf("cold allocation hit %d tokens", hit)
	}
	if m.UsedBlocks() != 7 { // 4 shared + ceil(100/16)-4 = 3 private
		t.Errorf("used = %d, want 7", m.UsedBlocks())
	}
	hit, err = m.AllocateShared(2, 100, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 64 {
		t.Errorf("second allocation hit %d tokens, want 64", hit)
	}
	if m.UsedBlocks() != 10 { // shared counted once: +3 private only
		t.Errorf("used = %d, want 10", m.UsedBlocks())
	}
	if st := m.Stats(); st.HitBlocks != 4 || st.MissBlocks != 4 {
		t.Errorf("stats = %+v, want 4 hits / 4 misses", st)
	}
	// A different group must not hit this chain.
	if got := m.MatchPrefix(8, 64); got != 0 {
		t.Errorf("foreign group matched %d tokens", got)
	}

	m.Free(1)
	if m.WarmBlocks() != 0 { // seq 2 still references the chain
		t.Errorf("warm = %d with a live referencer", m.WarmBlocks())
	}
	m.Free(2)
	if m.WarmBlocks() != 4 || m.UsedBlocks() != 4 {
		t.Errorf("warm = %d used = %d after freeing both, want 4/4", m.WarmBlocks(), m.UsedBlocks())
	}
	if got := m.MatchPrefix(7, 64); got != 64 {
		t.Errorf("warm chain matches %d tokens, want 64", got)
	}
	// The next allocation hits the warm chain without re-paying.
	hit, err = m.AllocateShared(3, 70, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 64 {
		t.Errorf("warm reuse hit %d tokens, want 64", hit)
	}
}

// Double-freeing a sharing sequence must not drop its references twice.
func TestDoubleFreeSharedDropsRefsOnce(t *testing.T) {
	m := mustManager(t, 16*20, 16)
	if _, err := m.AllocateShared(1, 64, 3, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocateShared(2, 64, 3, 64); err != nil {
		t.Fatal(err)
	}
	m.Free(1)
	m.Free(1) // no-op: refs must not go negative
	if m.WarmBlocks() != 0 {
		t.Fatalf("warm = %d; double free dropped live refs", m.WarmBlocks())
	}
	if got := m.MatchPrefix(3, 64); got != 64 {
		t.Errorf("chain matches %d tokens after double free, want 64", got)
	}
	m.Free(2)
	if m.WarmBlocks() != 4 {
		t.Errorf("warm = %d after final free, want 4", m.WarmBlocks())
	}
}

// Fork clones a sequence zero-copy; the first append to the shared
// partial tail copies it (other referencers) or adopts it (sole owner).
func TestForkCopyOnWrite(t *testing.T) {
	m := mustManager(t, 16*10, 16)
	if err := m.Allocate(1, 24); err != nil { // 2 blocks, partial tail
		t.Fatal(err)
	}
	if err := m.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 2 {
		t.Fatalf("used = %d after zero-copy fork, want 2", m.UsedBlocks())
	}
	if m.Tokens(2) != 24 {
		t.Fatalf("child tokens = %d, want 24", m.Tokens(2))
	}
	if err := m.Fork(1, 2); err == nil {
		t.Error("fork onto an existing id accepted")
	}
	if err := m.Fork(42, 9); err == nil {
		t.Error("fork of unknown sequence accepted")
	}

	// Child appends into the shared partial tail -> copy-on-write.
	if err := m.Append(2, 4); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 3 {
		t.Errorf("used = %d after CoW copy, want 3", m.UsedBlocks())
	}
	if st := m.Stats(); st.CoWCopies != 1 {
		t.Errorf("CoW copies = %d, want 1", st.CoWCopies)
	}
	if m.Tokens(1) != 24 || m.Tokens(2) != 28 {
		t.Errorf("tokens = %d/%d, want 24/28", m.Tokens(1), m.Tokens(2))
	}

	// Parent is now the tail's sole owner: append adopts it in place.
	if err := m.Append(1, 4); err != nil {
		t.Fatal(err)
	}
	if m.UsedBlocks() != 3 {
		t.Errorf("used = %d after adopt, want 3 (no new block)", m.UsedBlocks())
	}
	if st := m.Stats(); st.CoWCopies != 1 {
		t.Errorf("adopt counted as a copy: %+v", st)
	}

	m.Free(1)
	m.Free(2)
	// Both privates freed; the one still-shared full block stays warm.
	if m.UsedBlocks() != 1 || m.WarmBlocks() != 1 {
		t.Errorf("used/warm = %d/%d after frees, want 1/1", m.UsedBlocks(), m.WarmBlocks())
	}
}

// CanAppend must agree with Append on forked sequences: the CoW copy
// needs a block even when the token count alone says otherwise, and
// the adopt path needs none.
func TestCanAppendMatchesAppendOnForkedTail(t *testing.T) {
	m := mustManager(t, 16, 16) // exactly 1 block
	if err := m.Allocate(1, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Fork(1, 2); err != nil {
		t.Fatal(err)
	}
	// Zero free blocks: the CoW copy cannot be taken.
	if m.CanAppend(2, 1) {
		t.Error("CanAppend true though the CoW copy has no free block")
	}
	if err := m.Append(2, 1); err == nil {
		t.Error("OOM CoW append accepted")
	}
	// Parent gone -> sole owner -> adopt in place, no new block needed.
	m.Free(1)
	if !m.CanAppend(2, 1) {
		t.Error("CanAppend false though adopt needs no block")
	}
	if err := m.Append(2, 1); err != nil {
		t.Errorf("adopt append failed: %v", err)
	}
	if m.UsedBlocks() != 1 || m.Tokens(2) != 9 {
		t.Errorf("used/tokens = %d/%d after adopt, want 1/9", m.UsedBlocks(), m.Tokens(2))
	}
}

// Evicting a sequence that shares blocks must only drop its references:
// surviving referencers keep the chain, and warm blocks are reclaimed
// tail-first so the remaining chain stays contiguous and hittable.
func TestEvictWhileShared(t *testing.T) {
	m := mustManager(t, 16*12, 16) // 12 blocks
	if _, err := m.AllocateShared(1, 64, 5, 64); err != nil {
		t.Fatal(err) // 4 shared
	}
	if _, err := m.AllocateShared(2, 80, 5, 64); err != nil {
		t.Fatal(err) // +1 private
	}
	if err := m.Allocate(3, 112); err != nil { // +7 private: pool full
		t.Fatal(err)
	}
	evicted := m.EvictMostRecent(2, map[int]bool{3: true})
	if len(evicted) != 2 || evicted[0] != 2 || evicted[1] != 1 {
		t.Fatalf("evicted = %v, want [2 1]", evicted)
	}
	if m.FreeBlocks() < 2 {
		t.Errorf("free = %d after eviction", m.FreeBlocks())
	}
	// Eviction dropped refs, then reclaimed only what it needed, from
	// the chain tail: the surviving prefix must still match from the
	// root.
	if got := m.MatchPrefix(5, 64); got != 48 {
		t.Errorf("surviving chain matches %d tokens, want 48", got)
	}
}

// Warm chains are reclaimed LRU tail-first by ordinary allocations too,
// and CanAllocate counts warm blocks as allocatable space.
func TestReclaimKeepsChainContiguous(t *testing.T) {
	m := mustManager(t, 16*8, 16) // 8 blocks
	if _, err := m.AllocateShared(1, 96, 9, 96); err != nil {
		t.Fatal(err) // 6 shared, 0 private
	}
	m.Free(1)
	if m.WarmBlocks() != 6 || m.FreeBlocks() != 2 {
		t.Fatalf("warm/free = %d/%d, want 6/2", m.WarmBlocks(), m.FreeBlocks())
	}
	if !m.CanAllocate(64) { // needs 4 blocks; 2 free + reclaimable warm
		t.Fatal("CanAllocate ignores reclaimable warm blocks")
	}
	if err := m.Allocate(2, 64); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.ReclaimedBlocks != 2 {
		t.Errorf("reclaimed = %d, want 2", st.ReclaimedBlocks)
	}
	if got := m.MatchPrefix(9, 96); got != 64 {
		t.Errorf("chain matches %d tokens after tail reclaim, want 64", got)
	}
}

// CanAllocateShared sizes against missing blocks only, and a full-pool
// shared allocation fails cleanly with references rolled back.
func TestAllocateSharedOOMRollback(t *testing.T) {
	m := mustManager(t, 16*6, 16) // 6 blocks
	if _, err := m.AllocateShared(1, 64, 2, 64); err != nil {
		t.Fatal(err) // 4 shared
	}
	// 2 free blocks: a 100-token (7-block) newcomer hits 4 shared and
	// needs 3 new -> must be refused even though it shares.
	if m.CanAllocateShared(112, 2, 64) {
		t.Error("CanAllocateShared accepted an over-capacity allocation")
	}
	if _, err := m.AllocateShared(9, 112, 2, 64); err == nil {
		t.Fatal("over-capacity shared allocation accepted")
	}
	// The failed attempt must not leave stray references: freeing the
	// only real referencer leaves the chain fully warm.
	m.Free(1)
	if m.WarmBlocks() != 4 {
		t.Errorf("warm = %d after rollback + free, want 4", m.WarmBlocks())
	}
	// A fitting sharer still succeeds against the warm chain.
	hit, err := m.AllocateShared(10, 80, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hit != 64 {
		t.Errorf("hit = %d tokens, want 64", hit)
	}
}

// A sequence's own warm chain blocks are referenced before anything is
// reclaimed, so they are not headroom for it. When the pool's other
// space is too small, CanAllocateShared must say no and AllocateShared
// must refuse without reclaiming anyone's warm blocks.
func TestAllocateSharedOwnWarmChainIsNotHeadroom(t *testing.T) {
	const bs = 16
	for _, otherWarm := range []int{0, 2} {
		m := mustManager(t, (4+otherWarm)*bs, bs)
		// Group 1's 2-block chain warm, plus otherWarm warm blocks of
		// group 2's chain: 2 blocks free.
		if _, err := m.AllocateShared(1, 2*bs, 1, 2*bs); err != nil {
			t.Fatal(err)
		}
		m.Free(1)
		if otherWarm > 0 {
			if _, err := m.AllocateShared(2, otherWarm*bs, 2, otherWarm*bs); err != nil {
				t.Fatal(err)
			}
			m.Free(2)
		}
		if m.FreeBlocks() != 2 || m.WarmBlocks() != 2+otherWarm {
			t.Fatalf("otherWarm=%d: setup free=%d warm=%d", otherWarm, m.FreeBlocks(), m.WarmBlocks())
		}
		// The chain hits; 3+otherWarm private blocks must come from 2
		// free plus otherWarm reclaimable blocks, one short. Counting
		// the chain's own warm blocks would make it look as if it fit.
		tokens := (5 + otherWarm) * bs
		warm, used, reclaimed := m.WarmBlocks(), m.UsedBlocks(), m.Stats().ReclaimedBlocks
		if m.CanAllocateShared(tokens, 1, 2*bs) {
			t.Errorf("otherWarm=%d: CanAllocateShared counted the request's own warm chain as headroom", otherWarm)
		}
		if _, err := m.AllocateShared(9, tokens, 1, 2*bs); err == nil {
			t.Fatalf("otherWarm=%d: over-capacity shared allocation accepted", otherWarm)
		}
		if m.WarmBlocks() != warm || m.UsedBlocks() != used || m.Stats().ReclaimedBlocks != reclaimed {
			t.Errorf("otherWarm=%d: refused allocation moved warm %d->%d, used %d->%d, reclaimed %d->%d", otherWarm,
				warm, m.WarmBlocks(), used, m.UsedBlocks(), reclaimed, m.Stats().ReclaimedBlocks)
		}
	}
}
