package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"repro/internal/core.(*Engine).packPendingPrefills"}, "core"},
		{[]string{"repro/internal/deque.(*Deque[go.shape.int]).PushBack"}, "deque"},
		{[]string{"repro/internal/fleet.RunOnlineWorkers.func1"}, "fleet"},
		// The repository's runtime package is a layer; Go's runtime is not.
		{[]string{"repro/internal/runtime.(*Cluster).Submit"}, "runtime"},
		// Runtime and standard-library frames go to their repo caller.
		{[]string{"runtime.mapaccess2_fast64", "repro/internal/kvcache.(*Manager).lookup", "repro/internal/core.(*Engine).admit"}, "kvcache"},
		{[]string{"runtime.memmove", "runtime.growslice", "repro/internal/metrics.(*Recorder).Add"}, "metrics"},
		{[]string{"runtime.mallocgc", "sort.Slice", "repro/internal/sim.(*Engine).Run"}, "sim"},
		// The benchmark's own wrappers are not charged to the program.
		{[]string{"time.Now", "main.(*countingPredictor).PredictLen", "repro/internal/core.(*Engine).admit"}, layerBench},
		// Background collection has no repo frame.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.futex", "runtime.mPark"}, layerOther},
		{nil, layerOther},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pbuf encodes just enough protobuf to build a pprof profile.
type pbuf []byte

func (p pbuf) varint(num int, v uint64) pbuf {
	p = binary.AppendUvarint(p, uint64(num)<<3)
	return binary.AppendUvarint(p, v)
}

func (p pbuf) bytes(num int, b []byte) pbuf {
	p = binary.AppendUvarint(p, uint64(num)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func (p pbuf) packed(num int, vs ...uint64) pbuf {
	var body pbuf
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(num, body)
}

// syntheticProfile builds a gzipped CPU profile whose samples are the
// given stacks. Each stack is a list of locations, outermost last; each
// location lists its functions innermost first, as pprof records
// inlining.
func syntheticProfile(t *testing.T, stacks [][][]string, counts []uint64) []byte {
	t.Helper()
	strs := []string{""}
	funcID := map[string]uint64{}
	var prof pbuf
	prof = prof.bytes(1, pbuf(nil).varint(1, 1).varint(2, 2)) // sample_type
	var locID uint64
	for i, stack := range stacks {
		var locs []uint64
		for _, loc := range stack {
			locID++
			l := pbuf(nil).varint(1, locID)
			for _, fn := range loc {
				if _, ok := funcID[fn]; !ok {
					funcID[fn] = uint64(len(funcID) + 1)
					strs = append(strs, fn)
					prof = prof.bytes(5, pbuf(nil).varint(1, funcID[fn]).varint(2, uint64(len(strs)-1)))
				}
				l = l.bytes(4, pbuf(nil).varint(1, funcID[fn]).varint(2, 10))
			}
			prof = prof.bytes(4, l)
			locs = append(locs, locID)
		}
		prof = prof.bytes(2, pbuf(nil).packed(1, locs...).packed(2, counts[i], counts[i]*1e7))
	}
	for _, s := range strs {
		prof = prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldCPUProfile(t *testing.T) {
	data := syntheticProfile(t, [][][]string{
		{{"runtime.mapaccess2"}, {"repro/internal/kvcache.(*Manager).lookup"}, {"repro/internal/core.(*Engine).admit"}},
		// One location holding an inlined runtime frame and its repo caller.
		{{"runtime.memmove", "repro/internal/sim.(*Engine).pop"}, {"repro/internal/core.(*Engine).run"}},
		{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}},
		{{"runtime.futex"}},
		{{"repro/internal/core.(*Engine).admit"}},
	}, []uint64{3, 2, 5, 1, 4})
	got := map[string]int64{}
	if err := foldCPUProfile(data, got); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"kvcache": 3, "sim": 2, layerGC: 5, layerOther: 1, "core": 4}
	if len(got) != len(want) {
		t.Fatalf("fold = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("fold[%q] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
	if err := foldCPUProfile(data[:len(data)/2], map[string]int64{}); err == nil {
		t.Error("truncated profile folded without error")
	}
}

// tiny shrinks every workload to a few hundred requests.
func tiny(w workloadDef) int { return w.requests / 60 }

func TestWorkloadsPassChecksAtTinyScale(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for _, workers := range []int{0, 1} {
				p, err := w.setup(setupOpts{seed: 7, requests: tiny(w), workers: workers, tr: &tracer{}})
				if err != nil {
					t.Fatal(err)
				}
				out, err := p.call()
				if err != nil {
					t.Fatal(err)
				}
				if _, err := check(p.trace, out); err != nil {
					t.Fatal(err)
				}
				d, err := reportDigest(out)
				if err != nil {
					t.Fatal(err)
				}
				digests = append(digests, d)
			}
			// A second set-up reproduces the report byte for byte, and
			// disagg-chaos's report does not depend on its worker count.
			if digests[0] != digests[1] {
				t.Errorf("digests differ between repetitions: %v", digests)
			}
		})
	}
}

func TestCheckRejectsBrokenOutput(t *testing.T) {
	w, err := findWorkload("online-fleet")
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.setup(setupOpts{seed: 3, requests: tiny(w)})
	if err != nil {
		t.Fatal(err)
	}
	good, err := p.call()
	if err != nil {
		t.Fatal(err)
	}
	breakers := map[string]func(o *outcome){
		"lost record":       func(o *outcome) { o.records = o.records[1:] },
		"duplicate ID":      func(o *outcome) { o.records[1].ID = 0 },
		"short generation":  func(o *outcome) { o.records[2].OutputTokens-- },
		"token before time": func(o *outcome) { o.records[3].FirstToken = o.records[3].Arrival - 1 },
		"half dropped":      func(o *outcome) { o.records[4].Finish, o.records[4].OutputTokens = 0, 0 },
		"silent drop": func(o *outcome) {
			o.records[5].FirstToken, o.records[5].Finish, o.records[5].OutputTokens = 0, 0, 0
		},
		"stale digest": func(o *outcome) { o.rep.Latency.TTFTP99++ },
	}
	for name, corrupt := range breakers {
		o := *good
		o.records = append(o.records[:0:0], good.records...)
		corrupt(&o)
		if _, err := check(p.trace, &o); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	if _, err := check(p.trace, good); err != nil {
		t.Errorf("untouched output: %v", err)
	}
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func TestRunPublishesEveryMetric(t *testing.T) {
	w, err := findWorkload("online-fleet")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEndDefs}, {true, layerDefs}} {
		var stdout, stderr bytes.Buffer
		b := &bench{w: w, seed: 2, requests: tiny(w), budget: 10 * time.Millisecond, log: &stderr}
		if err := b.report(c.traced, &stdout); err != nil {
			t.Fatalf("traced %v: %v: %s", c.traced, err, stderr.String())
		}
		res := lastLine(t, stdout.String())
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("traced %v: result %+v, stderr %s", c.traced, res, stderr.String())
		}
		got := sortedKeys(res.Metrics)
		if want := metricNames(c.defs); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("traced %v: metrics %v, want %v", c.traced, got, want)
		}
		if !strings.Contains(stdout.String(), `"gomaxprocs"`) {
			t.Errorf("traced %v: no host metadata in output", c.traced)
		}
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, stdout.String())
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with
// the metrics and workloads this program publishes.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []def
		defs []metricDef
	}{{spec.EndToEnd, endToEndDefs}, {spec.PerLayer, layerDefs}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, program %d", len(c.json), len(c.defs))
		}
		for i, d := range c.defs {
			if j := c.json[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, j, d)
			}
		}
	}
}
