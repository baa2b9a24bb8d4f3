package core

import (
	"bytes"

	"microlonys/media"
)

// Engine is the restore pipeline: its methods implement every restore
// operation (the one-shot entry points run a fresh Engine per call), and
// it owns the per-worker scan scratch (full-resolution scan buffers,
// decoder tables, emulator state) they reuse, so a caller running many
// restores back to back — the damage-campaign harness runs thousands of
// trial restores per sweep — pays the buffers once per worker instead of
// once per restore. An Engine is not safe for concurrent use; create
// one per goroutine (the campaign runner keeps one per trial worker).
type Engine struct {
	workers int
	scratch []scanScratch
}

// NewEngine returns an engine whose restores run with the given worker
// count (same semantics as RestoreOptions.Workers: 0 = GOMAXPROCS,
// 1 = serial).
func NewEngine(workers int) *Engine {
	w := resolveWorkers(workers, 0) // no volume yet: scratch for the full pool
	return &Engine{workers: w, scratch: make([]scanScratch, w)}
}

// Workers returns the engine's resolved worker count.
func (e *Engine) Workers() int { return e.workers }

// RestoreVolume is core.RestoreVolume through the engine's reused scratch.
func (e *Engine) RestoreVolume(v *media.Volume, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	var buf bytes.Buffer
	st, err := e.RestoreToWriter(&buf, v, bootstrapText, ro)
	if err != nil {
		return nil, st, err
	}
	return buf.Bytes(), st, nil
}
