package runtime

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/sim"
)

func newTestCluster(t *testing.T, world int) *Cluster {
	t.Helper()
	eng := sim.NewEngine()
	c, err := NewCluster(eng, hw.L20, model.Tiny, world)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	return c
}

func TestNewClusterValidates(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewCluster(eng, hw.L20, model.Tiny, 8); err == nil {
		t.Error("world > node GPUs accepted")
	}
	if _, err := NewCluster(eng, hw.L20, model.Tiny, 100); err == nil {
		t.Error("world > layers accepted")
	}
}

func TestWorkerInitAndExec(t *testing.T) {
	c := newTestCluster(t, 2)
	rep := c.Workers[0].Call(ExecPrefill{Batch: costmodel.NewPrefillBatch([]int{64})})
	er, ok := rep.(ExecResult)
	if !ok {
		t.Fatalf("reply = %#v", rep)
	}
	if er.Dur <= 0 {
		t.Errorf("duration = %v", er.Dur)
	}
	if er.SendTokens != 64 {
		t.Errorf("stage 0 of 2 should forward 64 tokens, got %d", er.SendTokens)
	}
	// Last stage does not forward.
	rep = c.Workers[1].Call(ExecDecode{BatchSize: 8, KVTokens: 80})
	if er := rep.(ExecResult); er.SendTokens != 0 {
		t.Errorf("last stage forwards %d tokens, want 0", er.SendTokens)
	}
}

func TestWorkerRejectsExecBeforeInit(t *testing.T) {
	w := NewWorker()
	defer w.Call(Shutdown{})
	rep := w.Call(ExecDecode{BatchSize: 1, KVTokens: 1})
	if !isErr(rep) {
		t.Errorf("exec before init replied %#v", rep)
	}
}

func TestWorkerRejectsBadInit(t *testing.T) {
	w := NewWorker()
	defer w.Call(Shutdown{})
	plan, _ := model.Partition(model.Tiny, 2)
	cm, _ := costmodel.New(hw.L20, model.Tiny)
	if rep := w.Call(Init{Plan: plan, Rank: 5, World: 2, Cost: cm}); !isErr(rep) {
		t.Errorf("bad rank accepted: %#v", rep)
	}
	if rep := w.Call(Init{Plan: plan, Rank: 0, World: 3, Cost: cm}); !isErr(rep) {
		t.Errorf("world/stages mismatch accepted: %#v", rep)
	}
	if rep := w.Call(Init{Plan: plan, Rank: 0, World: 2}); !isErr(rep) {
		t.Errorf("init without a cost model accepted: %#v", rep)
	}
}

func TestWorkerUnknownMessage(t *testing.T) {
	w := NewWorker()
	defer w.Call(Shutdown{})
	if rep := w.Call(Ack{}); !isErr(rep) {
		t.Errorf("unknown message replied %#v", rep)
	}
}

func TestInitAckReportsWeights(t *testing.T) {
	eng := sim.NewEngine()
	c, err := NewCluster(eng, hw.A100, model.Llama2_70B, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	w := NewWorker()
	defer w.Call(Shutdown{})
	rep := w.Call(Init{Plan: c.Plan, Rank: 1, World: 4, Cost: c.Cost})
	ack, ok := rep.(InitAck)
	if !ok {
		t.Fatalf("reply = %#v", rep)
	}
	if math.Abs(ack.WeightBytes-c.Plan.StageWeightBytes(1)) > 1 {
		t.Errorf("weights = %v, want %v", ack.WeightBytes, c.Plan.StageWeightBytes(1))
	}
}

func TestSubmitPassChainsStages(t *testing.T) {
	c := newTestCluster(t, 4)
	var res PassResult
	done := false
	c.SubmitPass(PrefillTask(costmodel.NewPrefillBatch([]int{128})), 0, func(r PassResult) {
		res, done = r, true
	})
	c.Eng.Run()
	if !done {
		t.Fatal("pass never completed")
	}
	if res.Start != 0 {
		t.Errorf("start = %v", res.Start)
	}
	for st := 1; st < 4; st++ {
		if res.StageEnds[st] <= res.StageEnds[st-1] {
			t.Errorf("stage %d ended at %v, not after stage %d at %v",
				st, res.StageEnds[st], st-1, res.StageEnds[st-1])
		}
	}
	if res.End != res.StageEnds[3] {
		t.Errorf("end = %v, want %v", res.End, res.StageEnds[3])
	}
}

func TestBackToBackPassesOverlap(t *testing.T) {
	// Two prefill passes submitted together should overlap across
	// stages: pass B's stage 0 runs while pass A is on stage 1.
	c := newTestCluster(t, 2)
	batch := costmodel.NewPrefillBatch([]int{512})
	var a, b PassResult
	c.SubmitPass(PrefillTask(batch), 0, func(r PassResult) { a = r })
	c.SubmitPass(PrefillTask(batch), 0, func(r PassResult) { b = r })
	c.Eng.Run()
	if b.StageEnds[0] >= a.StageEnds[1] {
		t.Errorf("no overlap: B stage0 end %v, A stage1 end %v", b.StageEnds[0], a.StageEnds[1])
	}
	if b.End <= a.End {
		t.Errorf("pass order violated: B end %v <= A end %v", b.End, a.End)
	}
}

func TestAsyncP2PFreesGPUDuringTransfer(t *testing.T) {
	// The GPU must be free once its compute ends even though the
	// activation is still in flight on the link.
	c := newTestCluster(t, 2)
	var res PassResult
	c.SubmitPass(PrefillTask(costmodel.NewPrefillBatch([]int{256})), 0, func(r PassResult) { res = r })
	c.Eng.Run()
	if got := c.GPUs[0].FreeAt(); got != res.StageEnds[0] {
		t.Errorf("gpu0 free at %v, want compute end %v (transfer must not block it)", got, res.StageEnds[0])
	}
	// Stage 1 starts strictly after the transfer.
	xfer := c.Cost.P2PActivation(256)
	wantStart := res.StageEnds[0] + sim.Time(xfer)
	gotStart := res.StageEnds[1] - sim.Time(c.Cost.Pipeline(c.Plan).PrefillStage(1, costmodel.NewPrefillBatch([]int{256})))
	if math.Abs(float64(gotStart-wantStart)) > 1e-12 {
		t.Errorf("stage 1 start = %v, want %v", gotStart, wantStart)
	}
}

func TestRecorderSeesBusyIntervals(t *testing.T) {
	c := newTestCluster(t, 2)
	c.SubmitPass(DecodeTask(16, 16*64), 0, nil)
	c.Eng.Run()
	for g := 0; g < 2; g++ {
		if len(c.Rec.Intervals(g)) != 1 {
			t.Errorf("gpu %d recorded %d intervals, want 1", g, len(c.Rec.Intervals(g)))
		}
	}
}

func TestDecodePassDependencyChaining(t *testing.T) {
	// Simulate two decode steps of the same batch: step 2 must not
	// begin stage 0 before step 1 completes the last stage (inter-
	// decode-step data dependency).
	c := newTestCluster(t, 2)
	var step1 PassResult
	var step2 PassResult
	c.SubmitPass(DecodeTask(8, 800), 0, func(r1 PassResult) {
		step1 = r1
		c.SubmitPass(DecodeTask(8, 808), r1.End, func(r2 PassResult) { step2 = r2 })
	})
	c.Eng.Run()
	if step2.Start < step1.End {
		t.Errorf("step 2 started at %v before step 1 ended at %v", step2.Start, step1.End)
	}
}

func TestHybridAndChunkedTasks(t *testing.T) {
	c := newTestCluster(t, 2)
	rep := c.Workers[0].Call(ExecChunked{ChunkTokens: 64, CtxTokens: 128})
	if er := rep.(ExecResult); er.Dur <= 0 || er.SendTokens != 64 {
		t.Errorf("chunked exec = %+v", er)
	}
	rep = c.Workers[0].Call(ExecHybrid{DecodeBatch: 4, KVTokens: 400, ChunkTokens: 32, ChunkCtx: 0})
	if er := rep.(ExecResult); er.Dur <= 0 || er.SendTokens != 36 {
		t.Errorf("hybrid exec = %+v", er)
	}
	var res PassResult
	c.SubmitPass(HybridTask(4, 400, 32, 0), 0, func(r PassResult) { res = r })
	c.Eng.Run()
	if res.End <= 0 {
		t.Errorf("hybrid pass end = %v", res.End)
	}
}
