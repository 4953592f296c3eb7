// Package kvcache implements a paged KV-cache block manager in the
// style of vLLM's PagedAttention allocator: per-request token counts are
// rounded up to fixed-size blocks drawn from a bounded pool. The
// schedulers use it for admission control, the greedy-prefill simulation
// for capacity checks, and the baselines for recompute-eviction when
// memory overflows (paper §4.1 "re-computation strategy").
package kvcache

import (
	"fmt"
	"sort"
)

// DefaultBlockSize is vLLM's default block granularity in tokens.
const DefaultBlockSize = 16

// Manager tracks block allocations for a set of sequences against a
// fixed capacity. It is not safe for concurrent use; in TD-Pipe only the
// centralized engine touches it, which mirrors the paper's design.
//
// Sequence ids are expected to be small and dense (the engines number
// requests 0..n-1): the per-sequence table is a flat slice indexed by
// id, so the per-decode-token Append path costs an array index, not a
// map probe.
//
// Beyond per-sequence private blocks, the manager supports ref-counted
// shared prefix blocks (see sharing.go): a sequence may reference a
// chain of shared blocks for its prompt prefix, paying for each shared
// block only once across the sequences that reference it.
type Manager struct {
	blockSize int
	capacity  int // blocks

	// used counts private blocks (summed over sequences) plus every
	// resident shared block exactly once, warm or referenced.
	used int
	// seqs is a dense window over sequence ids: seqs[i] holds id
	// base+i, and arrival == 0 marks an absent sequence (allocSeq
	// stamps start at 1). The window rebases whenever the table
	// empties, so long-lived managers serving ever-increasing ids stay
	// small.
	seqs []seqAlloc
	base int
	live int

	// shared holds resident shared blocks by hash-chained key; blocks
	// whose refcount drops to zero stay resident ("warm") until
	// reclaimed under memory pressure.
	shared      map[uint64]*sharedBlock
	reclaimable int // shared blocks with zero refs
	touchSeq    int // LRU clock for shared-block reclaim
	forkSeq     int // distinct keyspace for CoW-forked blocks
	stats       ShareStats
	// scratch holds a chain resolved by AllocateShared or ImportKV
	// until it commits, so a refused admission allocates nothing.
	scratch []*sharedBlock

	// peak tracks the high-water mark in blocks.
	peak int
	// allocSeq orders allocations for most-recent-first eviction.
	allocSeq int
}

type seqAlloc struct {
	tokens int
	// blocks counts the sequence's private blocks; the shared blocks
	// it references, root first, are in chain and counted once
	// globally.
	blocks  int
	chain   []*sharedBlock
	arrival int
}

// NewManager returns a manager with capacity for capacityTokens tokens
// at the given block size (DefaultBlockSize if blockSize <= 0). The
// capacity is rounded UP to whole blocks, so a capacity that is not a
// multiple of the block size still admits every requested token rather
// than silently truncating to the next-lower block boundary.
func NewManager(capacityTokens, blockSize int) (*Manager, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if capacityTokens <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive capacity %d", capacityTokens)
	}
	return &Manager{
		blockSize: blockSize,
		capacity:  (capacityTokens + blockSize - 1) / blockSize,
		shared:    make(map[uint64]*sharedBlock),
	}, nil
}

// AlignTokens floors tokens to a whole-block multiple of blockSize
// (DefaultBlockSize if blockSize <= 0). Callers that derived a token
// budget from raw bytes pass their capacity through this to keep the
// pre-rounding block count now that NewManager rounds up instead of
// silently truncating.
func AlignTokens(tokens, blockSize int) int {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return tokens - tokens%blockSize
}

// NewManagerBytes sizes the pool from available bytes and per-token KV
// bytes.
func NewManagerBytes(availBytes, bytesPerToken float64, blockSize int) (*Manager, error) {
	if bytesPerToken <= 0 {
		return nil, fmt.Errorf("kvcache: non-positive bytes per token %v", bytesPerToken)
	}
	return NewManager(int(availBytes/bytesPerToken), blockSize)
}

// BlockSize returns the block granularity in tokens.
func (m *Manager) BlockSize() int { return m.blockSize }

// CapacityBlocks returns the total block count.
func (m *Manager) CapacityBlocks() int { return m.capacity }

// CapacityTokens returns the capacity in tokens.
func (m *Manager) CapacityTokens() int { return m.capacity * m.blockSize }

// UsedBlocks returns blocks currently allocated.
func (m *Manager) UsedBlocks() int { return m.used }

// FreeBlocks returns blocks currently available.
func (m *Manager) FreeBlocks() int { return m.capacity - m.used }

// UsageRatio returns used/capacity in [0,1].
func (m *Manager) UsageRatio() float64 {
	return float64(m.used) / float64(m.capacity)
}

// PeakBlocks returns the allocation high-water mark.
func (m *Manager) PeakBlocks() int { return m.peak }

// Live returns the number of resident sequences.
func (m *Manager) Live() int { return m.live }

// seq returns the allocation for id and whether it is resident.
func (m *Manager) seq(id int) (seqAlloc, bool) {
	i := id - m.base
	if i < 0 || i >= len(m.seqs) {
		return seqAlloc{}, false
	}
	s := m.seqs[i]
	return s, s.arrival != 0
}

// setSeq installs s for id, growing the dense table as needed.
//
// Invariant: every table slot at index >= len(m.seqs) and < cap is
// zero — fresh capacity comes zeroed from make, Free zeroes slots, and
// the table only shrinks (rebases) when all slots have been freed — so
// reslicing into spare capacity needs no clearing.
func (m *Manager) setSeq(id int, s seqAlloc) {
	if m.live == 0 {
		// Empty table: rebase the window to this id, so a long-lived
		// manager serving ever-increasing ids reuses its buffer
		// instead of growing with the id space.
		m.base = id
		m.seqs = m.seqs[:0]
	}
	if id < m.base {
		// Rare: extend the window downward by rebasing to id.
		shift := m.base - id
		grown := make([]seqAlloc, len(m.seqs)+shift, max(2*(len(m.seqs)+shift), 16))
		copy(grown[shift:], m.seqs)
		m.seqs = grown
		m.base = id
	}
	i := id - m.base
	if i >= len(m.seqs) {
		if i < cap(m.seqs) {
			m.seqs = m.seqs[:i+1]
		} else {
			grown := make([]seqAlloc, i+1, max(2*(i+1), 16))
			copy(grown, m.seqs)
			m.seqs = grown
		}
	}
	if m.seqs[i].arrival == 0 {
		m.live++
	}
	m.seqs[i] = s
}

// Tokens returns the cached token count for sequence id (0 if absent).
func (m *Manager) Tokens(id int) int {
	s, _ := m.seq(id)
	return s.tokens
}

// Has reports whether sequence id is resident.
func (m *Manager) Has(id int) bool {
	_, ok := m.seq(id)
	return ok
}

// BlocksFor returns the number of blocks needed for tokens tokens.
func (m *Manager) BlocksFor(tokens int) int {
	return (tokens + m.blockSize - 1) / m.blockSize
}

// CanAllocate reports whether a new sequence of tokens tokens fits,
// counting warm shared blocks as reclaimable space.
func (m *Manager) CanAllocate(tokens int) bool {
	return m.BlocksFor(tokens) <= m.FreeBlocks()+m.reclaimable
}

// Allocate reserves blocks for a new sequence, reclaiming warm shared
// blocks if the free pool alone is too small.
func (m *Manager) Allocate(id, tokens int) error {
	if tokens <= 0 {
		return fmt.Errorf("kvcache: allocate %d tokens", tokens)
	}
	if id < 0 {
		return fmt.Errorf("kvcache: negative sequence id %d", id)
	}
	if m.Has(id) {
		return fmt.Errorf("kvcache: sequence %d already allocated", id)
	}
	need := m.BlocksFor(tokens)
	if need > m.FreeBlocks() {
		m.reclaim(need - m.FreeBlocks())
	}
	if need > m.FreeBlocks() {
		return fmt.Errorf("kvcache: out of memory: need %d blocks, free %d", need, m.FreeBlocks())
	}
	m.allocSeq++
	m.setSeq(id, seqAlloc{tokens: tokens, blocks: need, arrival: m.allocSeq})
	m.used += need
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// appendPlan sizes growing s by n tokens: how the (possibly shared,
// possibly partial) tail block is handled, the resulting private block
// count, and the net new blocks required. A partial shared tail exists
// iff all blocks are shared and the last one is not full; appending
// writes into it, triggering copy-on-write (cow: other sequences still
// reference it) or adoption in place (adopt: sole owner).
func (m *Manager) appendPlan(s seqAlloc, n int) (keyCount, newPriv, grow int, cow, adopt bool) {
	keyCount = len(s.chain)
	if s.blocks == 0 && keyCount > 0 && s.tokens%m.blockSize != 0 {
		if s.chain[keyCount-1].refs > 1 {
			cow = true
		} else {
			adopt = true
		}
		keyCount--
	}
	newPriv = m.BlocksFor(s.tokens+n) - keyCount
	grow = newPriv - s.blocks
	if adopt {
		grow-- // the adopted block converts in place, shared -> private
	}
	return keyCount, newPriv, grow, cow, adopt
}

// CanAppend reports whether sequence id can grow by n tokens,
// including any copy-on-write block the growth would take.
func (m *Manager) CanAppend(id, n int) bool {
	s, ok := m.seq(id)
	if !ok {
		return false
	}
	_, _, grow, _, _ := m.appendPlan(s, n)
	return grow <= m.FreeBlocks()+m.reclaimable
}

// Append grows sequence id by n tokens, taking new blocks as needed.
// If the sequence's last block is a shared partial block (a CoW fork),
// the write triggers copy-on-write: the block is copied into a private
// block when other sequences still reference it, or adopted in place
// when this sequence is the sole owner.
func (m *Manager) Append(id, n int) error {
	s, ok := m.seq(id)
	if !ok {
		return fmt.Errorf("kvcache: append to unknown sequence %d", id)
	}
	if n <= 0 {
		return fmt.Errorf("kvcache: append %d tokens", n)
	}
	keyCount, newPriv, grow, cow, adopt := m.appendPlan(s, n)
	if grow > m.FreeBlocks() {
		m.reclaim(grow - m.FreeBlocks())
	}
	if grow > m.FreeBlocks() {
		return fmt.Errorf("kvcache: out of memory growing sequence %d: need %d blocks, free %d", id, grow, m.FreeBlocks())
	}
	if cow || adopt {
		b := s.chain[keyCount]
		if cow {
			b.refs--
			m.stats.CoWCopies++
		} else {
			delete(m.shared, b.key)
		}
		s.chain = s.chain[:keyCount]
	}
	s.tokens += n
	s.blocks = newPriv
	m.seqs[id-m.base] = s
	m.used += grow
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// Free releases sequence id's private blocks and drops its references
// on shared blocks. Shared blocks still referenced by other sequences
// stay; blocks whose refcount reaches zero stay resident as warm cache
// until reclaimed under pressure. Freeing an absent id is a no-op,
// matching allocator conventions (a double free drops no refs twice).
//
//det:hotpath
func (m *Manager) Free(id int) {
	s, ok := m.seq(id)
	if !ok {
		return
	}
	m.used -= s.blocks
	m.unref(s.chain)
	m.seqs[id-m.base] = seqAlloc{}
	m.live--
}

// EvictMostRecent frees the most recently admitted sequences until at
// least needBlocks are available, returning the evicted ids (most recent
// first). This is the paper's recompute strategy: "the KV cache of
// recently arrived requests will be freed once memory capacity is
// saturated". It never evicts ids in keep.
func (m *Manager) EvictMostRecent(needBlocks int, keep map[int]bool) []int {
	// Warm shared blocks are the cheapest space: reclaim them before
	// evicting any live sequence (no recompute needed to restore them).
	if m.FreeBlocks() < needBlocks {
		m.reclaim(needBlocks - m.FreeBlocks())
	}
	if m.FreeBlocks() >= needBlocks {
		return nil
	}
	type cand struct{ id, arrival int }
	cands := make([]cand, 0, m.live)
	for i := range m.seqs {
		id := m.base + i
		if m.seqs[i].arrival == 0 || keep[id] {
			continue
		}
		cands = append(cands, cand{id, m.seqs[i].arrival})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].arrival > cands[j].arrival })
	var evicted []int
	for _, c := range cands {
		if m.FreeBlocks() >= needBlocks {
			break
		}
		m.Free(c.id)
		// Freeing a sharing sequence may only have dropped refs; turn
		// any now-warm blocks into free space before evicting more.
		if m.FreeBlocks() < needBlocks {
			m.reclaim(needBlocks - m.FreeBlocks())
		}
		evicted = append(evicted, c.id)
	}
	return evicted
}

// Snapshot returns the resident (id, tokens) pairs sorted by id, for
// deterministic iteration by schedulers. The dense table iterates in id
// order, so no sort is needed.
func (m *Manager) Snapshot() []SeqInfo {
	out := make([]SeqInfo, 0, m.live)
	for i := range m.seqs {
		s := m.seqs[i]
		if s.arrival == 0 {
			continue
		}
		out = append(out, SeqInfo{ID: m.base + i, Tokens: s.tokens, Blocks: s.blocks + len(s.chain), Shared: len(s.chain)})
	}
	return out
}

// SeqInfo describes one resident sequence.
type SeqInfo struct {
	ID     int
	Tokens int
	// Blocks is the total block footprint; Shared of them are
	// ref-counted shared prefix blocks (counted once fleet-wide).
	Blocks int
	Shared int
}
