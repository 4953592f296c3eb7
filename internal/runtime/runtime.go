// Package runtime implements the paper's distributed runtime — the
// execution plane of the hierarchy-controller structure (§3.2). The
// centralized engine (the control plane, package core) submits whole
// pipeline passes; each stage knows only its own layer slice, its rank
// and the neighbour it sends activations to — the SPMD property of
// §3.2.2.
//
// The paper's control plane reaches its workers over RPC. Here the
// cluster calls each stage's timing function directly: simulated time
// prices no control message, so a message transport between the engine
// and the stages could change no result, only host time.
//
// Virtual time lives in the simulation kernel: a stage computes how
// long a task runs (via the cost model, standing in for the GPU), and
// the cluster schedules that duration on the GPU's resource. Transfers
// occupy a separate link resource, so computation is released before
// the activation lands on the next stage — the "unblocked transmission"
// the hierarchy-controller exists to enable.
package runtime

import "repro/internal/costmodel"

// taskKind selects the cost-model stage function a Task runs.
type taskKind uint8

const (
	taskPrefill taskKind = iota
	taskDecode
	taskChunked
	taskHybrid
)

// Task is the work of one pipeline pass. Every stage runs the same
// task over its own layer slice. Build one with PrefillTask,
// DecodeTask, ChunkedTask or HybridTask; a Task is a plain value, so
// submitting one allocates nothing.
type Task struct {
	kind    taskKind
	prefill costmodel.PrefillBatch
	batch   int // decode sequences (decode, hybrid)
	kv      int // decode KV tokens (decode, hybrid)
	chunk   int // prefill chunk tokens (chunked, hybrid)
	ctx     int // chunk context tokens (chunked, hybrid)
}

// PrefillTask returns the task for a prefill batch.
func PrefillTask(b costmodel.PrefillBatch) Task { return Task{kind: taskPrefill, prefill: b} }

// DecodeTask returns the task for one decode step.
func DecodeTask(batch, kvTokens int) Task {
	return Task{kind: taskDecode, batch: batch, kv: kvTokens}
}

// ChunkedTask returns the task for one chunked-prefill piece.
func ChunkedTask(chunkTokens, ctxTokens int) Task {
	return Task{kind: taskChunked, chunk: chunkTokens, ctx: ctxTokens}
}

// HybridTask returns the task for a hybrid (decode + prefill chunk)
// iteration.
func HybridTask(decodeBatch, kvTokens, chunkTokens, chunkCtx int) Task {
	return Task{kind: taskHybrid, batch: decodeBatch, kv: kvTokens, chunk: chunkTokens, ctx: chunkCtx}
}

// stageTime returns how long stage st computes t and how many
// activation tokens it forwards to stage st+1. The last stage forwards
// nothing: its output goes back to the engine as metadata, which the
// paper treats as negligible RPC traffic.
//
//det:hotpath
func stageTime(pipe *costmodel.Pipeline, st int, last bool, t Task) (dur float64, send int) {
	switch t.kind {
	case taskPrefill:
		dur, send = pipe.PrefillStage(st, t.prefill), t.prefill.Tokens
	case taskDecode:
		dur, send = pipe.DecodeStage(st, t.batch, t.kv), t.batch
	case taskChunked:
		dur, send = pipe.ChunkedPrefillStage(st, t.chunk, t.ctx), t.chunk
	default:
		dur, send = pipe.HybridStage(st, t.batch, t.kv, t.chunk, t.ctx), t.batch+t.chunk
	}
	if last {
		send = 0
	}
	return dur, send
}
