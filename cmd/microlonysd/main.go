// Command microlonysd is the archival job service: a long-running HTTP
// daemon that runs many concurrent archive/restore/salvage/range-query
// jobs against one shared bounded worker pool (internal/jobs).
//
//	microlonysd [-addr :8732] [-workers 4] [-queue 32] [-retries 3]
//	            [-journal PATH] [-drain 30s] [-profile paper|microfilm|cinema|tiny]
//	            [-fastsim] [-compress=true]
//
// Archives are held in an in-memory store keyed by name: an archive job
// reads a file from disk and stores the resulting volume; restore,
// range, table, listindex and salvage jobs operate on a stored archive
// by name. Jobs are asynchronous: submission returns a job ID, progress
// and results are polled.
//
// Endpoints:
//
//	POST /v1/archive    {"name","input",...}        file -> stored archive
//	POST /v1/restore    {"name","output"?}          stored archive -> bytes or file
//	POST /v1/range      {"name","off","length"}     byte range of the payload
//	POST /v1/table      {"name","table"}            one SQL-dump table's rows
//	POST /v1/listindex  {"name"}                    index summary, no payload decode
//	POST /v1/salvage    {"name","output"?}          best-effort loose-sheet restore
//	GET  /v1/jobs                                   every job's snapshot
//	GET  /v1/jobs/{id}                              one job's snapshot
//	GET  /v1/jobs/{id}/result                       a finished job's bytes
//	DELETE /v1/jobs/{id}                            cancel
//	GET  /v1/recovered                              jobs replayed from the journal
//	GET  /healthz                                   process liveness (always 200)
//	GET  /readyz                                    503 once draining begins
//
// A full queue answers 429; submissions during drain answer 503. On
// SIGTERM or SIGINT the daemon stops admitting, lets in-flight jobs
// finish within the -drain budget (cancelling stragglers past it),
// fsyncs and closes the journal, then exits 0.
//
// The -chaos-source-failures and -chaos-slow-source flags inject
// deterministic faults into every archive job's input stream; they exist
// for the chaos smoke test and for rehearsing operational runbooks.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"microlonys/internal/core"
	"microlonys/internal/faultinject"
	"microlonys/internal/jobs"
	"microlonys/media"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintf(os.Stderr, "microlonysd: %v\n", err)
		os.Exit(1)
	}
}

type server struct {
	mgr      *jobs.Manager
	opts     core.Options // archive defaults for the chosen profile
	draining atomic.Bool

	chaosFailures int           // transient source failures injected per archive job
	chaosSlow     time.Duration // latency injected per source read

	// pending maps an archive name to the newest archive job submitted
	// under it that has not settled yet; lookup waits on it.
	mu       sync.Mutex
	archives map[string]*core.Archived
	pending  map[string]int64
}

// run parses flags, starts the manager and the HTTP listener, and blocks
// until SIGTERM/SIGINT triggers a graceful drain. When ready is non-nil
// it receives the bound address once the listener is up (tests bind
// ":0" and read the port from here).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("microlonysd", flag.ContinueOnError)
	addr := fs.String("addr", ":8732", "listen address")
	workers := fs.Int("workers", 4, "shared worker pool size (total pipeline parallelism)")
	queue := fs.Int("queue", 32, "admission queue depth; beyond it submissions get 429")
	retries := fs.Int("retries", 3, "retry budget for transient I/O faults per job")
	journal := fs.String("journal", "", "append-only JSONL job journal path (empty: no journal)")
	drainBudget := fs.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM")
	profile := fs.String("profile", "paper", "media profile: paper, microfilm, cinema, tiny")
	fastsim := fs.Bool("fastsim", false, "use the fast scanner approximation")
	compress := fs.Bool("compress", true, "run DBCoder on archive payloads")
	chaosFailures := fs.Int("chaos-source-failures", 0, "inject N transient failures into every archive source (testing)")
	chaosSlow := fs.Duration("chaos-slow-source", 0, "inject per-read latency into every archive source (testing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var prof media.Profile
	switch *profile {
	case "paper":
		prof = media.Paper()
	case "microfilm":
		prof = media.Microfilm()
	case "cinema":
		prof = media.CinemaFilm()
	case "tiny":
		prof = media.Tiny()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}
	if *fastsim {
		prof.Scanner.FastSim = true
	}

	mgr, err := jobs.New(jobs.Config{
		Workers: *workers, QueueDepth: *queue, MaxRetries: *retries,
		JournalPath: *journal,
	})
	if err != nil {
		return err
	}
	opts := core.DefaultOptions(prof)
	opts.Compress = *compress
	s := &server{
		mgr: mgr, opts: opts,
		chaosFailures: *chaosFailures, chaosSlow: *chaosSlow,
		archives: make(map[string]*core.Archived),
		pending:  make(map[string]int64),
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.routes()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sig)
	select {
	case <-sig:
	case err := <-serveErr:
		return err
	}

	// Graceful drain: stop admitting (readyz flips to 503, Submit
	// answers 503), finish in-flight work within the budget, cancel
	// stragglers, flush the journal, then stop serving.
	s.draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), *drainBudget)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		httpSrv.Close()
		return err
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	return httpSrv.Shutdown(shutCtx)
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/archive", s.handleArchive)
	mux.HandleFunc("POST /v1/restore", s.handleRestore)
	mux.HandleFunc("POST /v1/range", s.handleRange)
	mux.HandleFunc("POST /v1/table", s.handleTable)
	mux.HandleFunc("POST /v1/listindex", s.handleListIndex)
	mux.HandleFunc("POST /v1/salvage", s.handleSalvage)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/recovered", s.handleRecovered)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	return mux
}

// submitBody is the JSON request body shared by the submission endpoints;
// each endpoint reads the fields its kind needs.
type submitBody struct {
	Name      string `json:"name"`
	Input     string `json:"input,omitempty"`  // archive: file to read
	Output    string `json:"output,omitempty"` // restore/salvage: file to write (empty: buffer in memory)
	Table     string `json:"table,omitempty"`
	Off       int    `json:"off,omitempty"`
	Length    int    `json:"length,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Indexed   bool   `json:"indexed,omitempty"` // archive: build catalog + selective-restore index
}

func decodeBody(w http.ResponseWriter, r *http.Request, b *submitBody) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(b); err != nil {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	if b.Name == "" {
		http.Error(w, "missing archive name", http.StatusBadRequest)
		return false
	}
	return true
}

// submit maps the manager's admission errors onto HTTP status codes:
// queue full -> 429, draining -> 503, bad request -> 400.
func (s *server) submit(w http.ResponseWriter, req jobs.Request) {
	id, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
	case errors.Is(err, jobs.ErrDraining):
		http.Error(w, "draining", http.StatusServiceUnavailable)
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]int64{"job": id})
	}
}

// lookup resolves an archive name for a request. While an archive job
// under that name is pending, it first waits (as long as the request
// lives) for the job to settle, so a client that has seen the job
// succeed never gets a 404 for the archive it just made.
func (s *server) lookup(w http.ResponseWriter, r *http.Request, name string) (*core.Archived, bool) {
	s.mu.Lock()
	id, pending := s.pending[name]
	s.mu.Unlock()
	if pending && !s.settle(r.Context(), name, id) {
		http.Error(w, fmt.Sprintf("request ended while archive %q was pending", name), http.StatusServiceUnavailable)
		return nil, false
	}
	s.mu.Lock()
	arch, ok := s.archives[name]
	s.mu.Unlock()
	if !ok {
		http.Error(w, fmt.Sprintf("no archive named %q", name), http.StatusNotFound)
	}
	return arch, ok
}

// settle waits for archive job id, registers its archive under name if
// it succeeded, and clears the name's pending entry if it is still this
// job's. It reports false, changing nothing, if ctx ends first. Both the
// job's own watcher and any lookup waiting on it may settle it; the
// second call stores the same archive again.
func (s *server) settle(ctx context.Context, name string, id int64) bool {
	res, _, err := s.mgr.Wait(ctx, id)
	if ctx.Err() != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil && res.Archived != nil {
		s.archives[name] = res.Archived
	}
	if s.pending[name] == id {
		delete(s.pending, name)
	}
	return true
}

func (s *server) handleArchive(w http.ResponseWriter, r *http.Request) {
	var b submitBody
	if !decodeBody(w, r, &b) {
		return
	}
	if b.Input == "" {
		http.Error(w, "missing input path", http.StatusBadRequest)
		return
	}
	opts := s.opts
	if b.Indexed {
		opts.Catalog = true
		opts.Index = true
	}
	// One fault budget per job, shared across retry attempts, so the
	// chaos flags model a source that recovers rather than one that
	// fails forever.
	var flaky *faultinject.Flaky
	if s.chaosFailures > 0 {
		flaky = faultinject.NewFlaky(s.chaosFailures)
	}
	input, slow := b.Input, s.chaosSlow
	name := b.Name
	req := jobs.Request{
		Kind: jobs.KindArchive,
		Source: func(context.Context) (io.Reader, error) {
			f, err := os.Open(input)
			if err != nil {
				return nil, err
			}
			// The file handle leaks until process exit if the job is
			// abandoned mid-read; jobs are short-lived, and the archive
			// pipeline always reads to EOF on success.
			var rd io.Reader = f
			if slow > 0 {
				rd = faultinject.SlowReader(rd, slow)
			}
			if flaky != nil {
				rd = flaky.Reader(rd)
			}
			return rd, nil
		},
		ArchiveOptions: opts,
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
	}
	id, err := s.mgr.Submit(req)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
		return
	case errors.Is(err, jobs.ErrDraining):
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Register the archive under its name once the job ends; until then
	// lookups of the name wait for it.
	s.mu.Lock()
	s.pending[name] = id
	s.mu.Unlock()
	go s.settle(context.Background(), name, id)
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]int64{"job": id})
}

func fileSink(path string) func(context.Context) (io.Writer, error) {
	if path == "" {
		return nil
	}
	return func(context.Context) (io.Writer, error) {
		return os.Create(path) // truncates, so each retry attempt starts clean
	}
}

func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var b submitBody
	if !decodeBody(w, r, &b) {
		return
	}
	arch, ok := s.lookup(w, r, b.Name)
	if !ok {
		return
	}
	s.submit(w, jobs.Request{
		Kind: jobs.KindRestore, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		RestoreOptions: core.RestoreOptions{Mode: core.RestoreNative},
		Sink:           fileSink(b.Output),
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
	})
}

func (s *server) handleRange(w http.ResponseWriter, r *http.Request) {
	var b submitBody
	if !decodeBody(w, r, &b) {
		return
	}
	arch, ok := s.lookup(w, r, b.Name)
	if !ok {
		return
	}
	if b.Length <= 0 {
		http.Error(w, "length must be positive", http.StatusBadRequest)
		return
	}
	s.submit(w, jobs.Request{
		Kind: jobs.KindRange, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		Off: b.Off, Length: b.Length,
		RestoreOptions: core.RestoreOptions{Mode: core.RestoreNative},
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
	})
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request) {
	var b submitBody
	if !decodeBody(w, r, &b) {
		return
	}
	arch, ok := s.lookup(w, r, b.Name)
	if !ok {
		return
	}
	if b.Table == "" {
		http.Error(w, "missing table name", http.StatusBadRequest)
		return
	}
	s.submit(w, jobs.Request{
		Kind: jobs.KindTable, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		Table:          b.Table,
		RestoreOptions: core.RestoreOptions{Mode: core.RestoreNative},
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
	})
}

func (s *server) handleListIndex(w http.ResponseWriter, r *http.Request) {
	var b submitBody
	if !decodeBody(w, r, &b) {
		return
	}
	arch, ok := s.lookup(w, r, b.Name)
	if !ok {
		return
	}
	s.submit(w, jobs.Request{
		Kind: jobs.KindListIndex, Volume: arch.Volume, BootstrapText: arch.BootstrapText,
		RestoreOptions: core.RestoreOptions{Mode: core.RestoreNative},
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
	})
}

func (s *server) handleSalvage(w http.ResponseWriter, r *http.Request) {
	var b submitBody
	if !decodeBody(w, r, &b) {
		return
	}
	arch, ok := s.lookup(w, r, b.Name)
	if !ok {
		return
	}
	var bag []*media.Medium
	for i := 0; i < arch.Volume.Sheets(); i++ {
		m, err := arch.Volume.Sheet(i)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		bag = append(bag, m)
	}
	s.submit(w, jobs.Request{
		Kind: jobs.KindSalvage, Sheets: bag,
		SalvageOptions: core.SalvageOptions{Mode: core.RestoreNative},
		Sink:           fileSink(b.Output),
		Timeout:        time.Duration(b.TimeoutMS) * time.Millisecond,
	})
}

func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(s.mgr.Jobs())
}

func (s *server) handleRecovered(w http.ResponseWriter, r *http.Request) {
	json.NewEncoder(w).Encode(s.mgr.Recovered())
}

func jobID(w http.ResponseWriter, r *http.Request) (int64, bool) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad job id", http.StatusBadRequest)
		return 0, false
	}
	return id, true
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	snap, err := s.mgr.Job(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	json.NewEncoder(w).Encode(snap)
}

// handleResult serves a finished job's in-memory output bytes. Jobs that
// wrote to an output file return 204: the bytes are on disk.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	snap, err := s.mgr.Job(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if !snap.State.Terminal() {
		http.Error(w, fmt.Sprintf("job is %s", snap.State), http.StatusConflict)
		return
	}
	res, snap, err := s.mgr.Wait(r.Context(), id) // terminal: returns immediately
	if err != nil {
		http.Error(w, fmt.Sprintf("job %s: %s", snap.State, snap.Err), http.StatusConflict)
		return
	}
	switch {
	case res.Index != nil:
		json.NewEncoder(w).Encode(res.Index)
	case res.Data != nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(res.Data)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := jobID(w, r)
	if !ok {
		return
	}
	if err := s.mgr.Cancel(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}
