package core

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/workload"
)

// BenchmarkEngineEndToEnd measures full TD-Pipe runs on the paper's
// largest configuration — the simulator's overall speed, which bounds
// how large a sweep the experiment harness can afford.
func BenchmarkEngineEndToEnd(b *testing.B) {
	b.ReportAllocs()
	reqs := workload.MustGenerate(workload.DefaultConfig(1000, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(hw.A100, model.Llama2_70B, 4)
		if _, err := Run(cfg, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineLongQueue runs a closed batch of 20,000 requests on
// the Fig-11 deployment (4xA100, Llama2-70B). The decode->prefill switch
// check runs on every decode step with the whole batch still queued, so
// per-step work that grows with the waiting queue shows up here — the
// 1,000-request queue of BenchmarkEngineEndToEnd is too short to expose
// it.
func BenchmarkEngineLongQueue(b *testing.B) {
	b.ReportAllocs()
	reqs := workload.MustGenerate(workload.DefaultConfig(20000, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(hw.A100, model.Llama2_70B, 4)
		if _, err := Run(cfg, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStealerRebalance measures the per-decode-step balancing cost.
func BenchmarkStealerRebalance(b *testing.B) {
	b.ReportAllocs()
	s := NewStealer(4, true)
	s.Prime([]int{128, 128, 128, 128})
	batch := make([]int, 128)
	for i := range batch {
		batch[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := s.Rebalance(i%4, batch[:120+i%8])
		_ = out
	}
}

// BenchmarkUsageSim measures Algorithm 1's per-prefill bookkeeping.
func BenchmarkUsageSim(b *testing.B) {
	b.ReportAllocs()
	s := newUsageSim(32, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateUsage(300, 400)
		if i%1000 == 0 {
			s.Reset()
		}
	}
}

// BenchmarkIntensityDecision measures the per-step switch evaluation
// with a realistic preview of four ~2,048-token pending prefill batches,
// so Temporal prices each through PrefillBottleneck as the engine does.
func BenchmarkIntensityDecision(b *testing.B) {
	b.ReportAllocs()
	cm, err := costmodel.New(hw.A100, model.Llama2_70B)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := model.Partition(model.Llama2_70B, 4)
	if err != nil {
		b.Fatal(err)
	}
	x := NewIntensity(cm, plan, 512)
	pending := []costmodel.PrefillBatch{
		costmodel.NewPrefillBatch([]int{512, 700, 836}),
		costmodel.NewPrefillBatch([]int{1024, 1100}),
		costmodel.NewPrefillBatch([]int{300, 420, 610, 730}),
		costmodel.NewPrefillBatch([]int{2048}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		si := x.Spatial(100+i%50, 500, 200)
		ti := x.Temporal(pending, 0.02, 4)
		_ = x.ShouldSwitch(si, ti)
	}
}
