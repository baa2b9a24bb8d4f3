package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"microlonys/internal/core"
	"microlonys/internal/jobs"
	"microlonys/media"
)

// TestRestoreRightAfterArchive submits a restore under an archive's name
// the moment a client sees its archive job succeed, 100 times over. The
// name must resolve every time: a client that has seen the job succeed
// may use the archive at once, and must never get a 404 for it. The job
// journal widens the window in which a snapshot already reads
// "succeeded" while the job's waiters have not woken yet (the terminal
// event is synced before they are released).
func TestRestoreRightAfterArchive(t *testing.T) {
	dir := t.TempDir()
	payload := smokePayload()[:2048]
	input := filepath.Join(dir, "payload.sql")
	if err := os.WriteFile(input, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	mgr, err := jobs.New(jobs.Config{Workers: 2, QueueDepth: 8, JournalPath: filepath.Join(dir, "jobs.journal")})
	if err != nil {
		t.Fatal(err)
	}
	// A distortion-free scanner keeps each restore cheap: the 404 this
	// test hunts happens at submission, not in the decode.
	prof := media.Tiny()
	prof.Scanner = media.Distortions{}
	s := &server{
		mgr:      mgr,
		opts:     core.DefaultOptions(prof),
		archives: make(map[string]*core.Archived),
		pending:  make(map[string]int64),
	}
	srv := httptest.NewServer(s.routes())
	defer srv.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := mgr.Drain(ctx); err != nil {
			t.Error(err)
		}
	}()

	ctx := context.Background()
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("archive-%d", i)
		id := submitJob(t, srv.URL+"/v1/archive", map[string]any{"name": name, "input": input})
		if snap := pollJob(t, srv.URL, id); snap.State != jobs.StateSucceeded {
			t.Fatalf("archive %d: %s (%s)", i, snap.State, snap.Err)
		}
		code, out := postJSON(t, srv.URL+"/v1/restore", map[string]any{"name": name})
		if code != http.StatusAccepted {
			t.Fatalf("restore %d right after its archive succeeded: %d %s", i, code, out)
		}
		var resp struct {
			Job int64 `json:"job"`
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		res, snap, err := mgr.Wait(ctx, resp.Job)
		if err != nil || !bytes.Equal(res.Data, payload) {
			t.Fatalf("restore %d: %s (%v), %d bytes", i, snap.State, err, len(res.Data))
		}
	}
}

// pollJob is waitJob without the pause between polls: it returns the
// first terminal snapshot the API reports.
func pollJob(t *testing.T, base string, id int64) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		code, out := getBody(t, fmt.Sprintf("%s/v1/jobs/%d", base, id))
		if code != http.StatusOK {
			t.Fatalf("GET job %d: %d %s", id, code, out)
		}
		var snap jobs.Snapshot
		if err := json.Unmarshal(out, &snap); err != nil {
			t.Fatal(err)
		}
		if snap.State.Terminal() {
			return snap
		}
	}
	t.Fatalf("job %d never reached a terminal state", id)
	return jobs.Snapshot{}
}
