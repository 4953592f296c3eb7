package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// check verifies one run's output against its trace. Any violation makes
// the run a failed operation. It returns how long the benchmark's own
// re-digest of the records took.
func check(trace []workload.Request, out *outcome) (digestS float64, err error) {
	n := len(trace)
	rep := out.rep
	if len(out.records) != n {
		return 0, fmt.Errorf("%d records for %d trace requests", len(out.records), n)
	}
	finished, outTokens := 0, 0
	for i, rec := range out.records {
		if rec.ID != i {
			return 0, fmt.Errorf("record %d carries ID %d", i, rec.ID)
		}
		if !rec.Finished() {
			if rec.FirstToken != 0 || rec.Finish != 0 || rec.OutputTokens != 0 {
				return 0, fmt.Errorf("request %d neither finished nor cleanly dropped: %+v", i, rec)
			}
			continue
		}
		// Finished() already orders arrival <= first token <= finish.
		if rec.Arrival < trace[i].ArrivalTime {
			return 0, fmt.Errorf("request %d: arrival %v (trace %v), first token %v, finish %v",
				i, rec.Arrival, trace[i].ArrivalTime, rec.FirstToken, rec.Finish)
		}
		if rec.OutputTokens != trace[i].OutputLen {
			return 0, fmt.Errorf("request %d generated %d of %d tokens", i, rec.OutputTokens, trace[i].OutputLen)
		}
		finished++
		outTokens += rec.OutputTokens
	}
	if dropped := rep.Faults.Dropped + rep.Admission.Dropped; finished+dropped != n {
		return 0, fmt.Errorf("%d finished + %d dropped != %d trace requests", finished, dropped, n)
	}
	if rep.Requests != finished {
		return 0, fmt.Errorf("report counts %d requests, records finish %d", rep.Requests, finished)
	}
	if rep.OutputTokens != outTokens {
		return 0, fmt.Errorf("report counts %d output tokens, records %d", rep.OutputTokens, outTokens)
	}
	if rep.Latency.Requests != n {
		return 0, fmt.Errorf("latency digest covers %d of %d requests", rep.Latency.Requests, n)
	}
	t := time.Now()
	d := metrics.Digest(out.records, rep.Latency.SLO)
	digestS = time.Since(t).Seconds()
	if d != rep.Latency {
		return digestS, fmt.Errorf("re-digested latency %+v differs from the report's %+v", d, rep.Latency)
	}
	return digestS, nil
}

// reportDigest is the SHA-256 of the marshaled Report followed by the
// marshaled Records: the bytes a later change must not move without
// saying so.
func reportDigest(out *outcome) (string, error) {
	h := sha256.New()
	for _, v := range []any{out.rep, out.records} {
		b, err := json.Marshal(v)
		if err != nil {
			return "", fmt.Errorf("marshal for digest: %w", err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
