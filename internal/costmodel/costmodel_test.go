package costmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/model"
)

func mustNew(t *testing.T, n hw.Node, s model.Spec) *Model {
	t.Helper()
	c, err := New(n, s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustPlan(t *testing.T, s model.Spec, stages int) model.PipelinePlan {
	t.Helper()
	p, err := model.Partition(s, stages)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewValidates(t *testing.T) {
	if _, err := New(hw.Node{}, model.Tiny); err == nil {
		t.Error("invalid node accepted")
	}
	if _, err := New(hw.L20, model.Spec{}); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestNewPrefillBatch(t *testing.T) {
	b := NewPrefillBatch([]int{100, 200, 300})
	if b.Seqs != 3 || b.Tokens != 600 {
		t.Errorf("batch = %+v", b)
	}
	if b.SumSqTokens != 100*100+200*200+300*300 {
		t.Errorf("sumsq = %v", b.SumSqTokens)
	}
}

// Paper §2.1: "a very small batch size is sufficient for the prefill
// phase to saturate computational resources, while the decode phase
// requires a substantially larger batch size."
func TestPrefillComputeBoundDecodeMemoryBound(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	plan := mustPlan(t, model.Llama2_70B, 4)

	// A single 512-token prompt: compute time should dominate memory.
	b := NewPrefillBatch([]int{512})
	k := c.Pipeline(plan).stage(0)
	flops := c.prefillComputeFLOPs(b, k.layers, k.dense, false)
	bytes := c.prefillMemBytes(b, k.weightBytes, k.kvLayer, k.layers)
	ct := flops / (c.Node.GPU.FLOPS() * c.P.MFUPrefill)
	mt := bytes / (c.Node.GPU.MemBandwidth() * c.P.HBMEff)
	if ct <= mt {
		t.Errorf("prefill not compute bound: compute %v <= memory %v", ct, mt)
	}

	// A decode step at small batch is memory bound (weight reads
	// dominate); at very large batch it approaches the compute roof,
	// which is what saturates the intensity curve.
	flops = c.decodeComputeFLOPs(32, 32*500, k.layers, k.dense, false)
	bytes = c.decodeMemBytes(32, 32*500, k.weightBytes, k.kvLayer, k.layers)
	ct = flops / (c.Node.GPU.FLOPS() * c.P.MFUDecode)
	mt = bytes / (c.Node.GPU.MemBandwidth() * c.P.HBMEff)
	if mt <= ct {
		t.Errorf("small-batch decode not memory bound: memory %v <= compute %v", mt, ct)
	}
}

// The decode intensity curve (paper Fig. 10 left): per-request rate
// rises with batch size and saturates.
func TestDecodeIntensityCurveSaturates(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	pipe := c.Pipeline(mustPlan(t, model.Llama2_70B, 4))
	rate := func(b int) float64 {
		return float64(b) / pipe.DecodeStage(0, b, b*400)
	}
	if !(rate(16) < rate(64) && rate(64) < rate(256)) {
		t.Errorf("rate not increasing: %v %v %v", rate(16), rate(64), rate(256))
	}
	// Saturation: doubling 256->512 gains much less than 16->32.
	gainSmall := rate(32) / rate(16)
	gainLarge := rate(512) / rate(256)
	if gainLarge >= gainSmall {
		t.Errorf("no saturation: small gain %v, large gain %v", gainSmall, gainLarge)
	}
}

func TestZeroWorkCostsNothing(t *testing.T) {
	c := mustNew(t, hw.L20, model.Tiny)
	pipe := c.Pipeline(mustPlan(t, model.Tiny, 2))
	if got := pipe.PrefillStage(0, PrefillBatch{}); got != 0 {
		t.Errorf("empty prefill = %v", got)
	}
	if got := pipe.DecodeStage(0, 0, 0); got != 0 {
		t.Errorf("empty decode = %v", got)
	}
	if got := pipe.ChunkedPrefillStage(0, 0, 100); got != 0 {
		t.Errorf("empty chunk = %v", got)
	}
	if got := pipe.HybridStage(0, 0, 0, 0, 0); got != 0 {
		t.Errorf("empty hybrid = %v", got)
	}
	if comp, comm := c.TPPrefill(4, PrefillBatch{}); comp != 0 || comm != 0 {
		t.Errorf("empty TP prefill = %v %v", comp, comm)
	}
	if comp, comm := c.TPDecode(4, 0, 0); comp != 0 || comm != 0 {
		t.Errorf("empty TP decode = %v %v", comp, comm)
	}
}

// Chunked prefill pays a KV-reload penalty: prefilling a prompt in k
// chunks costs more than prefilling it in one pass (paper §2.3).
func TestChunkedPrefillReloadPenalty(t *testing.T) {
	c := mustNew(t, hw.L20, model.Qwen2_5_32B)
	pipe := c.Pipeline(mustPlan(t, model.Qwen2_5_32B, 4))
	whole := pipe.PrefillStage(1, NewPrefillBatch([]int{2048}))
	var chunked float64
	const chunk = 512
	for done := 0; done < 2048; done += chunk {
		chunked += pipe.ChunkedPrefillStage(1, chunk, done)
	}
	if chunked <= whole {
		t.Errorf("chunked prefill (%v) not more expensive than whole (%v)", chunked, whole)
	}
}

// Paper Fig. 6 shape: TP communication share grows with device count and
// reaches roughly half the execution time at 4 GPUs on both nodes, with
// the A100 node's share at least the L20 node's.
func TestTPCommShareShape(t *testing.T) {
	b := NewPrefillBatch([]int{2048})
	share := func(n hw.Node, world int) float64 {
		c := mustNew(t, n, model.Llama30B)
		comp, comm := c.TPPrefill(world, b)
		return comm / (comp + comm)
	}
	for _, n := range []hw.Node{hw.L20, hw.A100} {
		s1 := share(n, 1)
		s2 := share(n, 2)
		s4 := share(n, 4)
		if s1 != 0 {
			t.Errorf("%s: 1-GPU comm share = %v, want 0", n.Name, s1)
		}
		if !(s2 < s4) {
			t.Errorf("%s: comm share not growing: s2=%v s4=%v", n.Name, s2, s4)
		}
		if s4 < 0.30 || s4 > 0.65 {
			t.Errorf("%s: 4-GPU comm share = %v, want ~0.45-0.55 (paper 47%%/54%%)", n.Name, s4)
		}
	}
	if share(hw.A100, 4) <= share(hw.L20, 4) {
		t.Errorf("A100 comm share (%v) not above L20 (%v)", share(hw.A100, 4), share(hw.L20, 4))
	}
}

// Paper §2.2.3: TP prefill scales sublinearly (1.84x on L20, 1.64x on
// A100 from 1 to 4 GPUs).
func TestTPScalingSublinear(t *testing.T) {
	b := NewPrefillBatch([]int{2048})
	speedup := func(n hw.Node) float64 {
		c := mustNew(t, n, model.Llama30B)
		c1, m1 := c.TPPrefill(1, b)
		c4, m4 := c.TPPrefill(4, b)
		return (c1 + m1) / (c4 + m4)
	}
	for _, n := range []hw.Node{hw.L20, hw.A100} {
		s := speedup(n)
		if s < 1.2 || s > 3.0 {
			t.Errorf("%s: 1->4 GPU speedup %v, want sublinear in [1.2,3.0]", n.Name, s)
		}
	}
	if speedup(hw.A100) >= speedup(hw.L20) {
		t.Errorf("A100 speedup (%v) should be below L20 (%v): more comm-bound", speedup(hw.A100), speedup(hw.L20))
	}
}

// PP communicates far less than TP for the same work: a single P2P
// activation transfer per stage boundary vs 2 all-reduces per layer.
func TestPPCommFarCheaperThanTP(t *testing.T) {
	c := mustNew(t, hw.L20, model.Llama2_70B)
	b := NewPrefillBatch([]int{1024})
	_, tpComm := c.TPPrefill(4, b)
	ppComm := 3 * c.P2PActivation(1024) // 3 boundary crossings in a 4-stage pipeline
	if ppComm*5 > tpComm {
		t.Errorf("PP comm %v not far below TP comm %v", ppComm, tpComm)
	}
}

func TestDecodeBottleneckIsMaxOverStages(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	plan := mustPlan(t, model.Llama2_70B, 4)
	pipe := c.Pipeline(plan)
	bn := pipe.DecodeBottleneck(128, 128*300)
	for st := range plan.Stages {
		if tm := pipe.DecodeStage(st, 128, 128*300); tm > bn {
			t.Errorf("stage %d time %v exceeds bottleneck %v", st, tm, bn)
		}
	}
	pbn := pipe.PrefillBottleneck(NewPrefillBatch([]int{512}))
	if pbn <= 0 {
		t.Errorf("prefill bottleneck = %v", pbn)
	}
}

// Hybrid batch cost is at least the decode-only cost of its decode part.
func TestHybridAtLeastDecode(t *testing.T) {
	c := mustNew(t, hw.L20, model.Qwen2_5_32B)
	pipe := c.Pipeline(mustPlan(t, model.Qwen2_5_32B, 4))
	d := pipe.DecodeStage(0, 64, 64*200)
	h := pipe.HybridStage(0, 64, 64*200, 256, 0)
	if h < d*0.8 {
		t.Errorf("hybrid %v implausibly below decode-only %v", h, d)
	}
}

// Property: all stage times are positive for non-empty work and monotone
// in tokens / batch size.
func TestCostMonotonicityProperty(t *testing.T) {
	c := mustNew(t, hw.L20, model.Tiny)
	pipe := c.Pipeline(mustPlan(t, model.Tiny, 2))
	prop := func(a, b uint16) bool {
		x, y := int(a%4096)+1, int(b%4096)+1
		if x > y {
			x, y = y, x
		}
		pf1 := pipe.PrefillStage(0, NewPrefillBatch([]int{x}))
		pf2 := pipe.PrefillStage(0, NewPrefillBatch([]int{y}))
		d1 := pipe.DecodeStage(0, x, x*10)
		d2 := pipe.DecodeStage(0, y, y*10)
		return pf1 > 0 && d1 > 0 && pf1 <= pf2 && d1 <= d2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Sanity: absolute decode throughput for A100+70B across a 4-stage
// pipeline lands within a plausible order of magnitude of the paper's
// ~2900 tokens/s overall result (decode-only should exceed it).
func TestAbsoluteScaleSanity(t *testing.T) {
	c := mustNew(t, hw.A100, model.Llama2_70B)
	pipe := c.Pipeline(mustPlan(t, model.Llama2_70B, 4))
	step := pipe.DecodeBottleneck(200, 200*500)
	// 4 batches in flight, each step yields `batch` tokens.
	rate := 200.0 / step
	if rate < 2000 || rate > 100000 {
		t.Errorf("decode pipeline rate = %.0f tokens/s, implausible scale", rate)
	}
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		t.Errorf("rate = %v", rate)
	}
}

// The per-call formulas below are the cost model as it stood before
// Pipeline precomputed its stage constants: every call re-derives the
// layer parameters from the Spec and takes the plan by value. They are
// kept verbatim as the reference the precomputed path must match bit
// for bit — reports are only byte-identical if every stage time is.

func refPrefillComputeFLOPs(c *Model, b PrefillBatch, nLayers int, hasHead bool) float64 {
	s := c.Spec
	dense := float64(b.Tokens) * s.DenseFLOPsPerTokenLayer()
	attn := 2 * float64(s.Hidden) * b.SumSqTokens
	f := float64(nLayers) * (dense + attn)
	if hasHead {
		f += float64(b.Seqs) * 2 * float64(s.Vocab) * float64(s.Hidden)
	}
	return f
}

func refPrefillMemBytes(c *Model, b PrefillBatch, weightBytes float64, nLayers int) float64 {
	s := c.Spec
	act := c.P.ActIOFactor * float64(nLayers) * s.ActivationBytes(b.Tokens)
	kvWrite := float64(nLayers) * s.KVBytesPerTokenLayer() * float64(b.Tokens)
	return weightBytes + act + kvWrite
}

func refDecodeComputeFLOPs(c *Model, batch, kvTokens, nLayers int, hasHead bool) float64 {
	s := c.Spec
	dense := float64(batch) * s.DenseFLOPsPerTokenLayer()
	attn := 4 * float64(s.Hidden) * float64(kvTokens)
	f := float64(nLayers) * (dense + attn)
	if hasHead {
		f += float64(batch) * 2 * float64(s.Vocab) * float64(s.Hidden)
	}
	return f
}

func refDecodeMemBytes(c *Model, batch, kvTokens int, weightBytes float64, nLayers int) float64 {
	s := c.Spec
	kvRead := float64(nLayers) * s.KVBytesPerTokenLayer() * float64(kvTokens)
	act := c.P.ActIOFactor * float64(nLayers) * s.ActivationBytes(batch)
	return weightBytes + kvRead + act
}

func refRoofline(c *Model, flops, bytes, mfu float64, nLayers int) float64 {
	ct := flops / (c.Node.GPU.FLOPS() * mfu)
	mt := bytes / (c.Node.GPU.MemBandwidth() * c.P.HBMEff)
	t := ct
	if mt > t {
		t = mt
	}
	return t + float64(nLayers)*c.P.OverheadPerLayer + c.P.OverheadPerPass
}

func refMixedRoofline(c *Model, flops, bytes, mfu float64, nLayers int, mixed bool) float64 {
	if mixed {
		eff := c.P.MixedBatchEff
		if eff <= 0 || eff > 1 {
			eff = 1
		}
		mfu *= eff
		bytes /= eff
	}
	return refRoofline(c, flops, bytes, mfu, nLayers)
}

func refPrefillStage(c *Model, plan model.PipelinePlan, st int, b PrefillBatch) float64 {
	if b.Tokens == 0 {
		return 0
	}
	stage := plan.Stages[st]
	flops := refPrefillComputeFLOPs(c, b, stage.Layers, stage.HasHead)
	bytes := refPrefillMemBytes(c, b, plan.StageWeightBytes(st), stage.Layers)
	return refRoofline(c, flops, bytes, c.P.MFUPrefill, stage.Layers)
}

func refChunkedPrefillStage(c *Model, plan model.PipelinePlan, st int, chunkTokens, ctxTokens int) float64 {
	if chunkTokens == 0 {
		return 0
	}
	stage := plan.Stages[st]
	b := PrefillBatch{Seqs: 1, Tokens: chunkTokens,
		SumSqTokens: float64(chunkTokens)*float64(chunkTokens) + 2*float64(chunkTokens)*float64(ctxTokens)}
	flops := refPrefillComputeFLOPs(c, b, stage.Layers, stage.HasHead)
	bytes := refPrefillMemBytes(c, b, plan.StageWeightBytes(st), stage.Layers)
	bytes += float64(stage.Layers) * c.Spec.KVBytesPerTokenLayer() * float64(ctxTokens)
	return refRoofline(c, flops, bytes, c.P.MFUPrefill, stage.Layers)
}

func refDecodeStage(c *Model, plan model.PipelinePlan, st int, batch, kvTokens int) float64 {
	if batch == 0 {
		return 0
	}
	stage := plan.Stages[st]
	flops := refDecodeComputeFLOPs(c, batch, kvTokens, stage.Layers, stage.HasHead)
	bytes := refDecodeMemBytes(c, batch, kvTokens, plan.StageWeightBytes(st), stage.Layers)
	return refRoofline(c, flops, bytes, c.P.MFUDecode, stage.Layers)
}

func refHybridStage(c *Model, plan model.PipelinePlan, st int, decodeBatch, kvTokens, chunkTokens, chunkCtx int) float64 {
	if decodeBatch == 0 && chunkTokens == 0 {
		return 0
	}
	stage := plan.Stages[st]
	b := PrefillBatch{Seqs: 1, Tokens: chunkTokens,
		SumSqTokens: float64(chunkTokens)*float64(chunkTokens) + 2*float64(chunkTokens)*float64(chunkCtx)}
	if chunkTokens == 0 {
		b = PrefillBatch{}
	}
	flops := refPrefillComputeFLOPs(c, b, stage.Layers, false) +
		refDecodeComputeFLOPs(c, decodeBatch, kvTokens, stage.Layers, stage.HasHead)
	bytes := float64(stage.Layers)*c.Spec.KVBytesPerTokenLayer()*float64(kvTokens+chunkCtx+chunkTokens) +
		plan.StageWeightBytes(st) +
		c.P.ActIOFactor*float64(stage.Layers)*c.Spec.ActivationBytes(decodeBatch+chunkTokens)
	mfu := (c.P.MFUPrefill + c.P.MFUDecode) / 2
	return refMixedRoofline(c, flops, bytes, mfu, stage.Layers, chunkTokens > 0 && decodeBatch > 0)
}

func refDecodeBottleneck(c *Model, plan model.PipelinePlan, batch, kvTokens int) float64 {
	var max float64
	for st := range plan.Stages {
		if t := refDecodeStage(c, plan, st, batch, kvTokens); t > max {
			max = t
		}
	}
	return max
}

func refPrefillBottleneck(c *Model, plan model.PipelinePlan, b PrefillBatch) float64 {
	var max float64
	for st := range plan.Stages {
		if t := refPrefillStage(c, plan, st, b); t > max {
			max = t
		}
	}
	return max
}

func refTPPrefill(c *Model, world int, b PrefillBatch) (compute, comm float64) {
	if b.Tokens == 0 {
		return 0, 0
	}
	s := c.Spec
	w := float64(world)
	flops := refPrefillComputeFLOPs(c, b, s.Layers, true) / w
	bytes := s.WeightBytes()/w +
		c.P.ActIOFactor*float64(s.Layers)*s.ActivationBytes(b.Tokens) +
		float64(s.Layers)*s.KVBytesPerTokenLayer()*float64(b.Tokens)/w
	return refRoofline(c, flops, bytes, c.P.MFUPrefill, s.Layers), c.tpComm(world, b.Tokens)
}

func refTPDecode(c *Model, world, batch, kvTokens int) (compute, comm float64) {
	if batch == 0 {
		return 0, 0
	}
	s := c.Spec
	w := float64(world)
	flops := refDecodeComputeFLOPs(c, batch, kvTokens, s.Layers, true) / w
	bytes := s.WeightBytes()/w +
		float64(s.Layers)*s.KVBytesPerTokenLayer()*float64(kvTokens)/w +
		c.P.ActIOFactor*float64(s.Layers)*s.ActivationBytes(batch)
	return refRoofline(c, flops, bytes, c.P.MFUDecode, s.Layers), c.tpComm(world, batch)
}

func refTPHybrid(c *Model, world, decodeBatch, kvTokens, chunkTokens, chunkCtx int) (compute, comm float64) {
	if decodeBatch == 0 && chunkTokens == 0 {
		return 0, 0
	}
	s := c.Spec
	w := float64(world)
	b := PrefillBatch{Seqs: 1, Tokens: chunkTokens,
		SumSqTokens: float64(chunkTokens)*float64(chunkTokens) + 2*float64(chunkTokens)*float64(chunkCtx)}
	flops := (refPrefillComputeFLOPs(c, b, s.Layers, false) +
		refDecodeComputeFLOPs(c, decodeBatch, kvTokens, s.Layers, true)) / w
	bytes := s.WeightBytes()/w +
		float64(s.Layers)*s.KVBytesPerTokenLayer()*float64(kvTokens+chunkCtx+chunkTokens)/w +
		c.P.ActIOFactor*float64(s.Layers)*s.ActivationBytes(decodeBatch+chunkTokens)
	mfu := (c.P.MFUPrefill + c.P.MFUDecode) / 2
	return refMixedRoofline(c, flops, bytes, mfu, s.Layers, chunkTokens > 0 && decodeBatch > 0), c.tpComm(world, decodeBatch+chunkTokens)
}

// sameBits fails the test unless got and want are the same float64
// down to the last bit.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// randLens draws 1-8 prompt lengths in [1, 4096], sometimes none.
func randLens(rng *rand.Rand) []int {
	lens := make([]int, rng.Intn(9))
	for i := range lens {
		lens[i] = 1 + rng.Intn(4096)
	}
	return lens
}

// Property: the precomputed Pipeline reproduces the per-call reference
// formulas bit for bit, for every evaluation model and node, every
// pipeline depth 1-8, and random batches, contexts and chunks
// (including the zero-work edge cases).
func TestPipelineMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, spec := range model.Models() {
		for _, node := range hw.Nodes() {
			c := mustNew(t, node, spec)
			for stages := 1; stages <= 8; stages++ {
				plan := mustPlan(t, spec, stages)
				pipe := c.Pipeline(plan)
				for trial := 0; trial < 40; trial++ {
					batch := rng.Intn(513)
					kvTokens := batch * rng.Intn(4097)
					chunk := rng.Intn(3) * rng.Intn(2049)
					chunkCtx := rng.Intn(8193)
					pb := NewPrefillBatch(randLens(rng))
					for st := 0; st < stages; st++ {
						sameBits(t, "PrefillStage", pipe.PrefillStage(st, pb), refPrefillStage(c, plan, st, pb))
						sameBits(t, "DecodeStage", pipe.DecodeStage(st, batch, kvTokens), refDecodeStage(c, plan, st, batch, kvTokens))
						sameBits(t, "ChunkedPrefillStage", pipe.ChunkedPrefillStage(st, chunk, chunkCtx),
							refChunkedPrefillStage(c, plan, st, chunk, chunkCtx))
						sameBits(t, "HybridStage", pipe.HybridStage(st, batch, kvTokens, chunk, chunkCtx),
							refHybridStage(c, plan, st, batch, kvTokens, chunk, chunkCtx))
					}
					sameBits(t, "DecodeBottleneck", pipe.DecodeBottleneck(batch, kvTokens), refDecodeBottleneck(c, plan, batch, kvTokens))
					sameBits(t, "PrefillBottleneck", pipe.PrefillBottleneck(pb), refPrefillBottleneck(c, plan, pb))
				}
			}
		}
	}
}

// The tensor-parallel costs share the stage-constant helpers with the
// pipeline; they must stay bit-identical too.
func TestTPMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range append(model.Models(), model.Llama30B) {
		for _, node := range hw.Nodes() {
			c := mustNew(t, node, spec)
			for trial := 0; trial < 200; trial++ {
				world := 1 << rng.Intn(3)
				batch := rng.Intn(513)
				kvTokens := batch * rng.Intn(4097)
				chunk := rng.Intn(3) * rng.Intn(2049)
				chunkCtx := rng.Intn(8193)
				pb := NewPrefillBatch(randLens(rng))
				gc, gm := c.TPPrefill(world, pb)
				wc, wm := refTPPrefill(c, world, pb)
				sameBits(t, "TPPrefill compute", gc, wc)
				sameBits(t, "TPPrefill comm", gm, wm)
				gc, gm = c.TPDecode(world, batch, kvTokens)
				wc, wm = refTPDecode(c, world, batch, kvTokens)
				sameBits(t, "TPDecode compute", gc, wc)
				sameBits(t, "TPDecode comm", gm, wm)
				gc, gm = c.TPHybrid(world, batch, kvTokens, chunk, chunkCtx)
				wc, wm = refTPHybrid(c, world, batch, kvTokens, chunk, chunkCtx)
				sameBits(t, "TPHybrid compute", gc, wc)
				sameBits(t, "TPHybrid comm", gm, wm)
			}
		}
	}
}

// A Pipeline never serves constants for a Spec, Node or calibration
// the Model no longer has: after any exported field of the Model is
// edited, a Pipeline built before the edit agrees bit for bit with the
// reference formulas evaluated on the edited Model.
func TestPipelineFollowsModelEdits(t *testing.T) {
	edits := []struct {
		name string
		edit func(*Model)
		// moves is false for fields no middle-stage prefill or decode
		// time depends on.
		moves bool
	}{
		{"Spec.Hidden", func(c *Model) { c.Spec.Hidden *= 2 }, true},
		{"Spec.Heads", func(c *Model) { c.Spec.Heads /= 2 }, true},
		{"Spec.KVHeads", func(c *Model) { c.Spec.KVHeads /= 2 }, true},
		{"Spec.Intermediate", func(c *Model) { c.Spec.Intermediate += 1024 }, true},
		{"Spec.Vocab", func(c *Model) { c.Spec.Vocab *= 3 }, false},
		{"Spec.BytesPerParam", func(c *Model) { c.Spec.BytesPerParam = 1 }, true},
		{"Spec.Layers", func(c *Model) { c.Spec.Layers++ }, false},
		{"Spec.Name", func(c *Model) { c.Spec.Name = "renamed" }, false},
		{"Spec", func(c *Model) { c.Spec = model.Llama2_13B }, true},
		{"Node.GPU", func(c *Model) { c.Node.GPU.FP16TFLOPS *= 2; c.Node.GPU.HBMGBps /= 2 }, true},
		{"Node", func(c *Model) { c.Node = hw.L20 }, true},
		{"P.MFU", func(c *Model) { c.P.MFUPrefill, c.P.MFUDecode = 0.9, 0.1 }, true},
		{"P.HBMEff", func(c *Model) { c.P.HBMEff = 0.3 }, true},
		{"P.ActIOFactor", func(c *Model) { c.P.ActIOFactor = 200 }, true},
		{"P.Overheads", func(c *Model) { c.P.OverheadPerLayer, c.P.OverheadPerPass = 1e-3, 1e-2 }, true},
		{"P.MixedBatchEff", func(c *Model) { c.P.MixedBatchEff = 0.5 }, false},
	}
	pb := NewPrefillBatch([]int{300, 1200, 64})
	for _, e := range edits {
		name, edit := e.name, e.edit
		c := mustNew(t, hw.A100, model.Llama2_70B)
		plan := mustPlan(t, model.Llama2_70B, 4)
		pipe := c.Pipeline(plan)
		decode, prefill := pipe.DecodeStage(1, 64, 64*700), pipe.PrefillStage(1, pb)
		edit(c)
		for st := range plan.Stages {
			sameBits(t, name+" PrefillStage", pipe.PrefillStage(st, pb), refPrefillStage(c, plan, st, pb))
			sameBits(t, name+" DecodeStage", pipe.DecodeStage(st, 64, 64*700), refDecodeStage(c, plan, st, 64, 64*700))
			sameBits(t, name+" ChunkedPrefillStage", pipe.ChunkedPrefillStage(st, 512, 1024), refChunkedPrefillStage(c, plan, st, 512, 1024))
			sameBits(t, name+" HybridStage", pipe.HybridStage(st, 64, 64*700, 512, 1024), refHybridStage(c, plan, st, 64, 64*700, 512, 1024))
		}
		if e.moves && pipe.DecodeStage(1, 64, 64*700) == decode && pipe.PrefillStage(1, pb) == prefill {
			t.Errorf("%s: edit moved no middle-stage time; the check above proves nothing", name)
		}
	}
}
