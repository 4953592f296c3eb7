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

// stageCase is one task kind for checkStageTimes: want gives the
// matching costmodel.Pipeline stage time, send the tokens every stage
// but the last forwards.
type stageCase struct {
	name string
	task Task
	want func(st int) float64
	send int
}

// checkStageTimes asserts that stageTime times each case exactly as the
// matching costmodel.Pipeline stage function, and forwards the
// activation tokens of the pass to the next stage — none from the last
// stage.
func checkStageTimes(t *testing.T, c *Cluster, cases []stageCase) {
	t.Helper()
	for _, tc := range cases {
		for st := 0; st < c.World(); st++ {
			last := st == c.World()-1
			dur, send := stageTime(c.pipe, st, last, tc.task)
			if want := tc.want(st); math.Float64bits(dur) != math.Float64bits(want) || dur <= 0 {
				t.Errorf("%s stage %d: dur %v, want %v", tc.name, st, dur, want)
			}
			wantSend := tc.send
			if last {
				wantSend = 0
			}
			if send != wantSend {
				t.Errorf("%s stage %d: forwards %d tokens, want %d", tc.name, st, send, wantSend)
			}
		}
	}
}

func TestWorkerInitAndExec(t *testing.T) {
	c := newTestCluster(t, 3)
	pipe := c.Cost.Pipeline(c.Plan)
	batch := costmodel.NewPrefillBatch([]int{64, 128})
	checkStageTimes(t, c, []stageCase{
		{"prefill", PrefillTask(batch), func(st int) float64 { return pipe.PrefillStage(st, batch) }, 192},
		{"decode", DecodeTask(16, 1600), func(st int) float64 { return pipe.DecodeStage(st, 16, 1600) }, 16},
	})
}

func TestHybridAndChunkedTasks(t *testing.T) {
	c := newTestCluster(t, 3)
	pipe := c.Cost.Pipeline(c.Plan)
	checkStageTimes(t, c, []stageCase{
		{"chunked", ChunkedTask(32, 64), func(st int) float64 { return pipe.ChunkedPrefillStage(st, 32, 64) }, 32},
		{"hybrid", HybridTask(8, 800, 16, 32), func(st int) float64 { return pipe.HybridStage(st, 8, 800, 16, 32) }, 24},
	})
	var res PassResult
	c.SubmitPass(HybridTask(4, 400, 32, 0), 0, func(r PassResult) { res = r })
	c.Eng.Run()
	if res.End <= 0 {
		t.Errorf("hybrid pass end = %v", res.End)
	}
}

// Interleaved pooled passes must not share result state: two
// overlapping passes completing at different times keep distinct
// StageEnds during their callbacks.
func TestPooledPassesDoNotAlias(t *testing.T) {
	c := newTestCluster(t, 2)
	type seen struct {
		start, end sim.Time
		stages     []sim.Time
	}
	var got []seen
	capture := func(r PassResult) {
		s := seen{start: r.Start, end: r.End}
		s.stages = append(s.stages, r.StageEnds...) // copy: recycled after return
		got = append(got, s)
	}
	for i := 0; i < 4; i++ {
		c.SubmitPass(DecodeTask(4+i, 400), 0, capture)
	}
	c.Eng.Run()
	if len(got) != 4 {
		t.Fatalf("completed %d of 4 passes", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].end <= got[i-1].end {
			t.Errorf("pass %d ended at %v, not after pass %d at %v", i, got[i].end, i-1, got[i-1].end)
		}
		if got[i].stages[1] != got[i].end {
			t.Errorf("pass %d stage end %v != end %v", i, got[i].stages[1], got[i].end)
		}
	}
}

// A steady-state prefill pass whose completion callback is bound once
// allocates nothing: the task travels by value in the pooled pass.
func TestPrefillPassAllocatesNothing(t *testing.T) {
	c := newTestCluster(t, 4)
	// The busy-interval log grows with every pass; it is the metrics
	// layer's cost, not the runtime's.
	for _, g := range c.GPUs {
		g.Observe(nil)
	}
	batch := costmodel.NewPrefillBatch([]int{128, 64})
	passes := 0
	done := func(PassResult) { passes++ }
	allocs := testing.AllocsPerRun(100, func() {
		c.SubmitPass(PrefillTask(batch), c.Eng.Now(), done)
		c.Eng.Run()
	})
	if allocs != 0 {
		t.Errorf("prefill pass allocates %v times, want 0", allocs)
	}
	if passes != 101 {
		t.Errorf("completed %d passes, want 101", passes)
	}
}
