package core

import (
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/sim"
)

// refPackPendingPrefills is packPendingPrefills as it was before the
// threshold scan was bounded: it sums the whole waiting queue on every
// call. Kept verbatim as the reference the bounded preview must match.
func refPackPendingPrefills(e *Engine) []costmodel.PrefillBatch {
	free := e.kv.FreeBlocks() * e.kv.BlockSize()
	var batches []costmodel.PrefillBatch
	var lens []int
	if scratchReuse {
		batches = e.packBatches[:0]
		lens = e.packLens[:0]
	}
	tokens := 0
	packed := 0
	waitingTokens := 0
	for i := 0; i < e.waiting.Len(); i++ {
		waitingTokens += e.states[e.waiting.At(i)].prefillLen
	}
	for i := 0; i < e.waiting.Len(); i++ {
		need := e.states[e.waiting.At(i)].prefillLen
		if packed+need > free {
			break
		}
		packed += need
		lens = append(lens, need)
		tokens += need
		if tokens >= e.cfg.MaxPrefillTokens {
			batches = append(batches, costmodel.NewPrefillBatch(lens))
			if scratchReuse {
				lens, tokens = lens[:0], 0
			} else {
				lens, tokens = nil, 0
			}
		}
	}
	if len(lens) > 0 {
		batches = append(batches, costmodel.NewPrefillBatch(lens))
	}
	if scratchReuse {
		e.packBatches = batches
		e.packLens = lens[:0]
	}
	min := e.cfg.MaxPrefillTokens
	if waitingTokens < min {
		min = waitingTokens
	}
	if packed < min {
		return nil
	}
	return batches
}

// packCase shapes one seeded waiting queue and KV pool.
type packCase struct {
	name string
	// queued is the number of requests pushed to the back of the queue.
	queued int
	// victims is the number of OOM victims pushed back to the front
	// (with recompute lengths: input plus generated tokens), wrapping
	// the ring buffer.
	victims int
	// maxLen bounds each request's prefill length.
	maxLen int
	// free picks the free KV tokens given the queue's head request
	// length and the queue total.
	free func(rng *rand.Rand, head, total int) int
	// maxPrefill picks MaxPrefillTokens given the queue total.
	maxPrefill func(rng *rand.Rand, total int) int
	// boundary overrides maxPrefill with packed-1, packed or packed+1,
	// where packed is what the free KV admits: the preview sits exactly
	// at its threshold.
	boundary bool
}

// The bounded preview and the full-scan reference agree on the batches,
// the packed tokens and the nil return over seeded random queues: a
// queue whose total is below MaxPrefillTokens, free KV smaller than the
// head request, OOM victims re-queued at the front, and mixes of all,
// with and without scratch-buffer recycling.
func TestPackPendingPrefillsMatchesFullScan(t *testing.T) {
	anyFree := func(rng *rand.Rand, head, total int) int { return rng.Intn(total + 2*head + 1) }
	anyMax := func(rng *rand.Rand, total int) int { return 1 + rng.Intn(4096) }
	cases := []packCase{
		{name: "total below MaxPrefillTokens", queued: 6, maxLen: 200,
			free:       anyFree,
			maxPrefill: func(rng *rand.Rand, total int) int { return total + 1 + rng.Intn(1000) }},
		{name: "free below head request", queued: 300, maxLen: 2000,
			free:       func(rng *rand.Rand, head, total int) int { return rng.Intn(head) },
			maxPrefill: anyMax},
		{name: "OOM victims at front", queued: 200, victims: 40, maxLen: 1500,
			free: anyFree, maxPrefill: anyMax},
		{name: "long queue", queued: 5000, victims: 3, maxLen: 1000,
			free: anyFree, maxPrefill: anyMax},
		{name: "preview at threshold", queued: 400, victims: 5, maxLen: 800,
			free: anyFree, maxPrefill: anyMax, boundary: true},
		{name: "empty queue", maxLen: 1,
			free: anyFree, maxPrefill: anyMax},
	}
	defer func() { scratchReuse = true }()
	nils, batches := 0, 0
	for _, reuse := range []bool{true, false} {
		scratchReuse = reuse
		for _, tc := range cases {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			for trial := 0; trial < 50; trial++ {
				e, err := NewEngine(sim.NewEngine(), fastConfig(4))
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				addReq := func(front bool) {
					id := len(e.states)
					st := &reqState{prefillLen: 1 + rng.Intn(tc.maxLen)}
					if front {
						st.prefillLen += rng.Intn(tc.maxLen) // recompute: input + generated
						e.waiting.PushFront(id)
					} else {
						e.waiting.PushBack(id)
					}
					e.states = append(e.states, st)
					total += st.prefillLen
				}
				for i := 0; i < tc.queued; i++ {
					addReq(false)
				}
				for i := 0; i < tc.victims; i++ {
					addReq(true)
				}
				head := 1
				if e.waiting.Len() > 0 {
					head = e.states[e.waiting.Front()].prefillLen
				}
				e.cfg.MaxPrefillTokens = tc.maxPrefill(rng, total)
				free := min(tc.free(rng, head, total), e.kv.CapacityTokens())
				if used := e.kv.CapacityTokens() - free; used > 0 {
					// A resident filler sequence leaves about free tokens.
					if err := e.kv.Allocate(len(e.states), used); err != nil {
						t.Fatal(err)
					}
				}
				if tc.boundary {
					packed, free := 0, e.kv.FreeBlocks()*e.kv.BlockSize()
					for i := 0; i < e.waiting.Len(); i++ {
						need := e.states[e.waiting.At(i)].prefillLen
						if packed+need > free {
							break
						}
						packed += need
					}
					e.cfg.MaxPrefillTokens = max(1, packed-1+rng.Intn(3))
				}

				got := e.packPendingPrefills()
				gotNil := got == nil
				got = append([]costmodel.PrefillBatch(nil), got...)
				want := refPackPendingPrefills(e)
				if gotNil != (want == nil) {
					t.Fatalf("%s/reuse=%v trial %d: nil return %v, reference %v", tc.name, reuse, trial, gotNil, want == nil)
				}
				if len(got) != len(want) {
					t.Fatalf("%s/reuse=%v trial %d: %d batches, reference %d", tc.name, reuse, trial, len(got), len(want))
				}
				packed, wantPacked := 0, 0
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s/reuse=%v trial %d: batch %d = %+v, reference %+v", tc.name, reuse, trial, i, got[i], want[i])
					}
					packed += got[i].Tokens
					wantPacked += want[i].Tokens
				}
				if want == nil {
					nils++
				}
				batches += len(want)
				if packed != wantPacked {
					t.Fatalf("%s/reuse=%v trial %d: packed %d tokens, reference %d", tc.name, reuse, trial, packed, wantPacked)
				}
			}
		}
	}
	if nils == 0 || batches == 0 {
		t.Errorf("trials produced %d nil previews and %d batches; both paths must be exercised", nils, batches)
	}
}
