package kvcache

// Prefix sharing: PagedAttention-style ref-counted block reuse behind a
// prefix trie of hash-chained block keys.
//
// Requests that open with the same shared prefix (system prompt,
// conversation history) map their first full blocks to the same chain
// of keys: key_i = mix(key_{i-1}, i), rooted at the prefix group. The
// chain IS the trie — looking up a prefix walks keys from the root and
// stops at the first miss, so a longer conversation extends a shorter
// one's chain instead of duplicating it. Each resident shared block is
// counted once in the pool no matter how many sequences reference it;
// blocks whose refcount drops to zero stay resident ("warm") and are
// reclaimed LRU, chain tails first, only under memory pressure.
//
// Copy-on-write: only full blocks are shared between prefix groups, so
// decode appends never write a group-shared block. Fork clones a whole
// sequence zero-copy (multi-turn conversation branching); the clone's
// partial tail block stays shared until one side appends, which copies
// it (refs > 1) or adopts it in place (sole owner) — see Append.

import (
	"fmt"
	"sort"
)

// sharedBlock is one resident ref-counted block. Sequences point at
// their blocks directly; key is the block's identity in m.shared and in
// exports.
type sharedBlock struct {
	key     uint64
	refs    int
	lastUse int // touchSeq stamp; LRU order for reclaiming warm blocks
}

// ShareStats counts prefix-sharing traffic since the manager was built.
type ShareStats struct {
	// HitBlocks/MissBlocks count shared-prefix blocks found resident
	// vs. newly inserted at allocation time.
	HitBlocks, MissBlocks int
	// ReclaimedBlocks counts warm blocks dropped under memory pressure.
	ReclaimedBlocks int
	// CoWCopies counts copy-on-write block copies taken on append.
	CoWCopies int
}

// Stats returns the sharing counters.
func (m *Manager) Stats() ShareStats { return m.stats }

// SharedBlocks returns the number of resident shared blocks.
func (m *Manager) SharedBlocks() int { return len(m.shared) }

// WarmBlocks returns resident shared blocks no live sequence references.
func (m *Manager) WarmBlocks() int { return m.reclaimable }

// chainRoot and chainNext generate the hash-chained keys of group's
// shared prefix blocks: a splitmix-style chain rooted at the group id,
// so equal (group, block index) pairs collide on purpose and everything
// else does not (up to 64-bit hashing). Block i's key is
// chainNext(prev, i), where prev is chainRoot(group) for i == 0 and
// block i-1's key otherwise, so a walk computes each key on demand.
func chainRoot(group int) uint64 {
	return uint64(group)*0x9E3779B97F4A7C15 + 0x85EBCA77C2B2AE63
}

func chainNext(prev uint64, i int) uint64 {
	h := prev + uint64(i) + 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return h ^ (h >> 31)
}

// chainKeys returns the keys of the first n full blocks of group's
// shared prefix.
func chainKeys(group, n int) []uint64 {
	if n <= 0 {
		return nil
	}
	keys := make([]uint64, n)
	k := chainRoot(group)
	for i := range keys {
		k = chainNext(k, i)
		keys[i] = k
	}
	return keys
}

// forkKey returns a fresh key for a block promoted to shared by Fork.
func (m *Manager) forkKey() uint64 {
	m.forkSeq++
	h := uint64(m.forkSeq)*0xD6E8FEB86659FD93 + 0xA0761D6478BD642F
	h = (h ^ (h >> 32)) * 0xE7037ED1A0B428DB
	return h ^ (h >> 29)
}

// touch advances the LRU clock and returns the new stamp.
func (m *Manager) touch() int {
	m.touchSeq++
	return m.touchSeq
}

// MatchPrefix returns how many tokens of the first prefixTokens tokens
// of group's shared prefix are resident right now — the longest warm or
// referenced chain walk from the root, in whole blocks. This is the
// signal cache-affinity dispatch reads and the prefill skip the engine
// applies. The walk stops at the first missing block.
//
//det:hotpath
func (m *Manager) MatchPrefix(group, prefixTokens int) int {
	n := prefixTokens / m.blockSize
	k := chainRoot(group)
	for i := 0; i < n; i++ {
		k = chainNext(k, i)
		if _, ok := m.shared[k]; !ok {
			return i * m.blockSize
		}
	}
	return n * m.blockSize
}

// sharedPlan sizes an AllocateShared call from one walk of the chain.
type sharedPlan struct {
	newBlocks int // missing chain blocks + private blocks
	warm      int // resident chain blocks no sequence references
	hitTokens int
	hitBlocks int
}

// chainLen returns how many full shared blocks a sequence of tokens
// tokens whose first prefixTokens tokens are a shared prefix holds.
//
//det:hotpath
func (m *Manager) chainLen(tokens, prefixTokens int) int {
	return min(max(prefixTokens, 0), tokens) / m.blockSize
}

// planShared walks group's chain once, probing each block once. When
// chain is non-nil (len == chainLen) it also records each resident
// block, nil for a missing one, so AllocateShared can commit without
// probing again.
//
//det:hotpath
func (m *Manager) planShared(tokens, group, prefixTokens int, chain []*sharedBlock) sharedPlan {
	n := m.chainLen(tokens, prefixTokens)
	var p sharedPlan
	contig := n
	k := chainRoot(group)
	for i := 0; i < n; i++ {
		k = chainNext(k, i)
		b := m.shared[k]
		if chain != nil {
			chain[i] = b
		}
		if b == nil {
			contig = min(contig, i)
			continue
		}
		p.hitBlocks++
		if b.refs == 0 {
			p.warm++
		}
	}
	// Only a contiguous chain from the root skips prefill work: KV for
	// position t needs every earlier position resident too.
	p.hitTokens = contig * m.blockSize
	// Missing chain blocks plus private blocks.
	p.newBlocks = m.BlocksFor(tokens) - p.hitBlocks
	return p
}

// fits reports whether need new blocks fit once warm resident blocks
// of the same chain are referenced. Those are referenced before
// anything is reclaimed, so they are not headroom: counting them would
// promise space the allocation cannot free, and it would reclaim other
// warm blocks only to fail.
//
//det:hotpath
func (m *Manager) fits(need, warm int) bool {
	return need <= m.FreeBlocks()+m.reclaimable-warm
}

// CanAllocateShared reports whether a new sequence of tokens tokens
// whose first prefixTokens tokens belong to group's shared prefix fits,
// counting resident chain blocks as already paid for and other warm
// blocks as reclaimable. It answers exactly as AllocateShared would.
//
//det:hotpath
func (m *Manager) CanAllocateShared(tokens, group, prefixTokens int) bool {
	p := m.planShared(tokens, group, prefixTokens, nil)
	return m.fits(p.newBlocks, p.warm)
}

// AllocateShared reserves blocks for a new sequence whose first
// prefixTokens tokens are group's shared prefix. Resident chain blocks
// are referenced instead of re-allocated; missing ones are inserted
// (ref 1) so later sequences hit them. It returns the contiguous hit
// length in tokens — prefill work the caller may skip. When the
// sequence does not fit it fails without changing the manager.
func (m *Manager) AllocateShared(id, tokens, group, prefixTokens int) (int, error) {
	if tokens <= 0 {
		return 0, fmt.Errorf("kvcache: allocate %d tokens", tokens)
	}
	if id < 0 {
		return 0, fmt.Errorf("kvcache: negative sequence id %d", id)
	}
	if m.Has(id) {
		return 0, fmt.Errorf("kvcache: sequence %d already allocated", id)
	}
	buf := m.chainScratch(m.chainLen(tokens, prefixTokens))
	p := m.planShared(tokens, group, prefixTokens, buf)
	if !m.fits(p.newBlocks, p.warm) {
		clear(buf)
		return 0, fmt.Errorf("kvcache: out of memory: need %d blocks, available %d", p.newBlocks, m.AvailableBlocks()-p.warm)
	}
	chain := m.refChain(buf)
	m.reclaim(p.newBlocks - m.FreeBlocks())
	k := chainRoot(group)
	for i, b := range chain {
		if b == nil {
			b = m.insertShared(chainNext(k, i))
			chain[i] = b
		}
		k = b.key
	}
	m.touchTailFirst(chain)
	priv := m.BlocksFor(tokens) - len(chain)
	m.allocSeq++
	m.setSeq(id, seqAlloc{tokens: tokens, blocks: priv, chain: chain, arrival: m.allocSeq})
	m.used += priv
	if m.used > m.peak {
		m.peak = m.used
	}
	m.stats.HitBlocks += p.hitBlocks
	m.stats.MissBlocks += len(chain) - p.hitBlocks
	return p.hitTokens, nil
}

// chainScratch returns the manager's resolve buffer with room for n
// blocks.
func (m *Manager) chainScratch(n int) []*sharedBlock {
	if cap(m.scratch) < n {
		m.scratch = make([]*sharedBlock, n)
	}
	return m.scratch[:n]
}

// refChain copies a resolved chain (nil where a block is missing) out
// of the resolve buffer into a new sequence's block list, clearing the
// buffer, and references the resident blocks, so the reclaim that makes
// room for the missing ones cannot drop them.
func (m *Manager) refChain(resolved []*sharedBlock) []*sharedBlock {
	if len(resolved) == 0 {
		return nil
	}
	chain := append([]*sharedBlock(nil), resolved...)
	clear(resolved)
	m.ref(chain)
	return chain
}

// ref takes one reference on each of chain's blocks, skipping nil
// (missing) entries; warm blocks stop being reclaimable.
func (m *Manager) ref(chain []*sharedBlock) {
	for _, b := range chain {
		if b == nil {
			continue
		}
		b.refs++
		if b.refs == 1 {
			m.reclaimable--
		}
	}
}

// insertShared makes a resident shared block for key, referenced once.
func (m *Manager) insertShared(key uint64) *sharedBlock {
	b := &sharedBlock{key: key, refs: 1}
	m.shared[key] = b
	m.used++
	return b
}

// touchTailFirst stamps chain's blocks tail first, so LRU reclaim drops
// chain tails before roots, keeping surviving chains contiguous (and so
// hittable).
func (m *Manager) touchTailFirst(chain []*sharedBlock) {
	for i := len(chain) - 1; i >= 0; i-- {
		chain[i].lastUse = m.touch()
	}
}

// unref drops one reference on each of chain's blocks; blocks whose
// count reaches zero stay resident as warm cache.
//
//det:hotpath
func (m *Manager) unref(chain []*sharedBlock) {
	for _, b := range chain {
		b.refs--
		if b.refs == 0 {
			m.reclaimable++
		}
	}
}

// Fork clones parent's cache for child zero-copy: every block of the
// parent becomes shared between the two, private blocks are promoted to
// ref-counted shared blocks in place, and the first append to the
// (possibly partial) tail block triggers copy-on-write in Append. The
// child starts with the parent's token count and no private blocks.
func (m *Manager) Fork(parentID, childID int) error {
	p, ok := m.seq(parentID)
	if !ok {
		return fmt.Errorf("kvcache: fork of unknown sequence %d", parentID)
	}
	if childID < 0 {
		return fmt.Errorf("kvcache: negative sequence id %d", childID)
	}
	if m.Has(childID) {
		return fmt.Errorf("kvcache: sequence %d already allocated", childID)
	}
	m.ref(p.chain)
	all := make([]*sharedBlock, len(p.chain), len(p.chain)+p.blocks)
	copy(all, p.chain)
	for i := 0; i < p.blocks; i++ {
		b := &sharedBlock{key: m.forkKey(), refs: 2}
		m.shared[b.key] = b
		all = append(all, b)
	}
	m.touchTailFirst(all)
	// used is unchanged: p.blocks private blocks became p.blocks shared
	// blocks, each still counted once.
	p.blocks = 0
	p.chain = all
	m.seqs[parentID-m.base] = p
	m.allocSeq++
	m.setSeq(childID, seqAlloc{tokens: p.tokens, chain: append([]*sharedBlock(nil), all...), arrival: m.allocSeq})
	return nil
}

// reclaim drops up to need warm shared blocks (refs == 0), least
// recently used first, turning cached-but-unreferenced memory back into
// free blocks.
func (m *Manager) reclaim(need int) {
	if need <= 0 || m.reclaimable == 0 {
		return
	}
	type cand struct {
		key     uint64
		lastUse int
	}
	cands := make([]cand, 0, m.reclaimable)
	for k, b := range m.shared {
		if b.refs == 0 {
			cands = append(cands, cand{k, b.lastUse})
		}
	}
	// lastUse stamps are unique (one touch per block event), so the
	// order — and therefore the whole simulation — is deterministic.
	sort.Slice(cands, func(i, j int) bool { return cands[i].lastUse < cands[j].lastUse })
	for _, c := range cands {
		if need <= 0 {
			break
		}
		delete(m.shared, c.key)
		m.used--
		m.reclaimable--
		m.stats.ReclaimedBlocks++
		need--
	}
}
