package kvcache

// KV hand-off: serializing a sequence's block window out of one manager
// and re-materializing it in another (or the same one), preserving
// shared-prefix ref-counts and the sharing counters. This is the
// substrate of disaggregated prefill/decode serving: a prefill replica
// exports the finished prefix KV, the modeled interconnect carries the
// blocks, and the decode replica imports them and resumes generation.
//
// Chain keys (hash-chained from the prefix group, see sharing.go) are
// globally consistent, so an export referencing group-shared blocks
// imports into any manager: resident chain blocks are re-referenced
// instead of re-stored, which is exactly the affinity signal a
// disaggregated router exploits. Fork-derived keys are manager-local
// (drawn from the exporting manager's fork sequence), so exports of
// forked sequences round-trip only within their own manager.

import "fmt"

// ExportedSeq is a portable description of one sequence's KV block
// window: how many tokens it caches, how many private blocks back it,
// and the shared block keys it references, in chain order.
type ExportedSeq struct {
	// Tokens is the cached token count.
	Tokens int
	// PrivateBlocks is the number of blocks owned solely by the
	// sequence; their contents always travel with the export.
	PrivateBlocks int
	// Keys are the shared block keys the sequence referenced, root
	// first. On import, resident keys are re-referenced in place and
	// missing ones re-inserted from the transferred data.
	Keys []uint64
}

// Blocks returns the total block footprint of the export.
func (ex ExportedSeq) Blocks() int { return ex.PrivateBlocks + len(ex.Keys) }

// ExportKV detaches sequence id from the manager and returns its block
// window. The sequence's private blocks are released (their contents
// travel with the export) and its references on shared blocks are
// dropped — still-referenced blocks stay, zero-ref blocks stay resident
// as warm cache exactly as Free leaves them. No sharing counters are
// touched: an export followed by an import leaves the manager's
// statistics identical to never having exported.
func (m *Manager) ExportKV(id int) (ExportedSeq, error) {
	s, ok := m.seq(id)
	if !ok {
		return ExportedSeq{}, fmt.Errorf("kvcache: export of unknown sequence %d", id)
	}
	ex := s.export()
	m.used -= s.blocks
	m.unref(s.chain)
	m.seqs[id-m.base] = seqAlloc{}
	m.live--
	return ex, nil
}

// SnapshotKV returns sequence id's block window like ExportKV but
// WITHOUT detaching it: the sequence stays allocated and decoding can
// continue. This is the periodic-checkpoint primitive — a crash-safe
// copy a recovery path can later feed to ImportKV on another manager.
// The snapshot is immutable (keys are copied), so it stays valid as the
// live sequence keeps appending past it.
func (m *Manager) SnapshotKV(id int) (ExportedSeq, error) {
	s, ok := m.seq(id)
	if !ok {
		return ExportedSeq{}, fmt.Errorf("kvcache: snapshot of unknown sequence %d", id)
	}
	return s.export(), nil
}

// export describes s's block window, with the keys of its shared
// blocks.
func (s seqAlloc) export() ExportedSeq {
	var keys []uint64
	if len(s.chain) > 0 {
		keys = make([]uint64, len(s.chain))
		for i, b := range s.chain {
			keys[i] = b.key
		}
	}
	return ExportedSeq{Tokens: s.tokens, PrivateBlocks: s.blocks, Keys: keys}
}

// ResidentBlocks returns how many of ex's shared keys are resident in m
// right now — blocks an import would reference instead of re-storing,
// and KV a hand-off need not move again. Private blocks are never
// resident elsewhere, so they do not count.
func (m *Manager) ResidentBlocks(ex ExportedSeq) int {
	resident, _ := m.probe(ex.Keys, nil)
	return resident
}

// MissingBlocks returns the blocks an import of ex into m would have to
// store: the private blocks plus every shared key not resident here.
// This sizes the import's memory footprint — the headroom a
// disaggregated router checks before placing a hand-off. (The modeled
// transfer always moves the whole window, ex.Blocks(); residency
// saves storage on the target, not link traffic.)
func (m *Manager) MissingBlocks(ex ExportedSeq) int {
	return ex.PrivateBlocks + len(ex.Keys) - m.ResidentBlocks(ex)
}

// probe looks up each of keys once, counting the resident blocks and
// the warm ones among them. When buf is non-nil (len >= len(keys)) it
// also records each block, nil for a missing one.
func (m *Manager) probe(keys []uint64, buf []*sharedBlock) (resident, warm int) {
	for i, k := range keys {
		b := m.shared[k]
		if buf != nil {
			buf[i] = b
		}
		if b == nil {
			continue
		}
		resident++
		if b.refs == 0 {
			warm++
		}
	}
	return resident, warm
}

// CanImport reports whether ImportKV(id, ex) would fit right now,
// counting warm shared blocks as reclaimable space — except warm
// blocks that are themselves part of the export's chain, which the
// import references (see fits).
func (m *Manager) CanImport(ex ExportedSeq) bool {
	resident, warm := m.probe(ex.Keys, nil)
	return m.fits(ex.PrivateBlocks+len(ex.Keys)-resident, warm)
}

// ImportKV re-materializes an exported sequence as id. Resident shared
// keys are re-referenced in place; missing ones are re-inserted from the
// transferred data (ref 1); private blocks are re-allocated. It returns
// the number of shared blocks found resident (KV the import did not have
// to store). Like ExportKV it leaves the sharing counters untouched, so
// an export/import round trip is invisible in the statistics. An
// import that does not fit (see CanImport) fails without changing the
// manager.
func (m *Manager) ImportKV(id int, ex ExportedSeq) (int, error) {
	if ex.Tokens <= 0 {
		return 0, fmt.Errorf("kvcache: import of %d tokens", ex.Tokens)
	}
	if id < 0 {
		return 0, fmt.Errorf("kvcache: negative sequence id %d", id)
	}
	if m.Has(id) {
		return 0, fmt.Errorf("kvcache: sequence %d already allocated", id)
	}
	if ex.PrivateBlocks < 0 || ex.Blocks() != m.BlocksFor(ex.Tokens) {
		return 0, fmt.Errorf("kvcache: malformed export: %d tokens need %d blocks, export carries %d",
			ex.Tokens, m.BlocksFor(ex.Tokens), ex.Blocks())
	}
	buf := m.chainScratch(len(ex.Keys))
	resident, warm := m.probe(ex.Keys, buf)
	need := ex.PrivateBlocks + len(ex.Keys) - resident
	if !m.fits(need, warm) {
		clear(buf)
		return 0, fmt.Errorf("kvcache: out of memory importing sequence %d: need %d blocks, available %d",
			id, need, m.AvailableBlocks()-warm)
	}
	chain := m.refChain(buf)
	m.reclaim(need - m.FreeBlocks())
	for i, b := range chain {
		if b == nil {
			chain[i] = m.insertShared(ex.Keys[i])
		}
	}
	m.touchTailFirst(chain)
	m.allocSeq++
	m.setSeq(id, seqAlloc{
		tokens:  ex.Tokens,
		blocks:  ex.PrivateBlocks,
		chain:   chain,
		arrival: m.allocSeq,
	})
	m.used += ex.PrivateBlocks
	if m.used > m.peak {
		m.peak = m.used
	}
	return resident, nil
}

// AvailableBlocks returns blocks an allocation could take right now:
// free blocks plus warm shared blocks reclaimable under pressure.
func (m *Manager) AvailableBlocks() int { return m.capacity - m.used + m.reclaimable }
