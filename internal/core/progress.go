package core

import "context"

// Progress is one pipeline progress report: which stage is running and
// how far along it is. Total 0 means the stage's extent is unknown up
// front (streaming sources); Done then counts processed units (rows,
// segments) monotonically.
type Progress struct {
	// Stage names the pipeline stage: "plan", "apply", "stream" (the
	// write loop), "detect", "traceback", "dispute".
	Stage string `json:"stage"`
	// Done and Total count stage units: stages for protect (plan+apply),
	// rows for every segment loop — the write loop and the read loop of
	// detect, traceback and dispute, whether over a stream or one
	// in-memory table.
	Done  int `json:"done"`
	Total int `json:"total,omitempty"`
}

// progressKey carries the callback in a context.
type progressKey struct{}

// WithProgress returns a context that delivers pipeline progress to fn.
// The long-running Framework methods (ProtectContext, ApplyContext,
// FingerprintContext, TracebackContext, ApplyStream, AppendStream)
// report coarse-grained progress through it — the async job layer
// threads this into per-job SSE streams. fn must be cheap, must not
// block, and must be safe for concurrent use.
func WithProgress(ctx context.Context, fn func(Progress)) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, fn)
}

// reportProgress invokes the context's progress callback, if any.
func reportProgress(ctx context.Context, p Progress) {
	if fn, ok := ctx.Value(progressKey{}).(func(Progress)); ok {
		fn(p)
	}
}
