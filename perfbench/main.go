// Command perfbench is the repository's benchmark: three seeded workloads
// run against the public facade (microlonys) and the job engine
// (internal/jobs), every output verified against the generated input.
//
//	bash perfbench/run.sh --workload bulk-roundtrip --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced measurement (facade spans at workers 1 and GOMAXPROCS plus a
// serial layer replay) and prints the per-layer metrics. The last line of
// standard output is the result object; the full record — host header,
// repro command, samples and, when traced, every span — is written to
// .bench_build/records/. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// watchdogLimit bounds one run: past it the benchmark dumps every
// goroutine's stack and exits instead of hanging.
const watchdogLimit = 170 * time.Second

// recordDir holds the per-run records, inside the checkout's build dir.
const recordDir = ".bench_build/records"

type workload struct {
	run   func(seed int64, dur time.Duration) (*run, error)
	trace func(seed int64, dur time.Duration) (*run, *tracer, error)
}

var workloads = map[string]workload{
	"bulk-roundtrip":   {runBulk, traceBulk},
	"emulated-restore": {runEmulated, traceEmulated},
	"query-service":    {runQuery, traceQuery},
}

func main() {
	name := flag.String("workload", "", "bulk-roundtrip, emulated-restore or query-service")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {bulk-roundtrip|emulated-restore|query-service} --seed N --seconds S --trace {0|1}")
		os.Exit(2)
	}
	time.AfterFunc(watchdogLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: watchdog: run exceeded %v; goroutines:\n", watchdogLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		os.Exit(3)
	})

	hdr := hostHeader(*name, *seed, *seconds, *trace)
	dur := time.Duration(*seconds) * time.Second
	var r *run
	var tr *tracer
	var err error
	if *trace == 1 {
		r, tr, err = w.trace(*seed, dur)
	} else {
		r, err = w.run(*seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		if r != nil {
			fmt.Fprintf(os.Stderr, "perfbench: errors: %v mismatches: %v\n", r.errs, r.wrong)
		}
		os.Exit(1)
	}
	correct := len(r.wrong) == 0
	if err := writeRecord(hdr, r, tr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing record: %v\n", err)
	}
	hj, _ := json.Marshal(hdr)
	fmt.Printf("header %s\n", hj)
	if len(r.errs) > 0 || len(r.wrong) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: errors: %v mismatches: %v\n", r.errs, r.wrong)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	fmt.Println(string(out))
	if !correct {
		os.Exit(1)
	}
}

// header identifies the host, the code and the inputs of a record.
type header struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	SubSeeds   map[string]int64 `json:"sub_seeds"`
	Seconds    int              `json:"seconds"`
	Trace      int              `json:"trace"`
	Cores      int              `json:"cores"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	CPU        string           `json:"cpu"`
	GoVersion  string           `json:"go_version"`
	Commit     string           `json:"commit"`
	SourceHash string           `json:"source_sha256"`
	Started    string           `json:"started"`
	Repro      string           `json:"repro"`
}

func hostHeader(name string, seed int64, seconds, trace int) header {
	subs := map[string]int64{}
	for _, s := range []string{"data", "damage", "shuffle", "queries"} {
		subs[s] = subSeed(seed, s)
	}
	return header{
		Workload: name, Seed: seed, SubSeeds: subs, Seconds: seconds, Trace: trace,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Commit: commit(), SourceHash: sourceHash(),
		Started: time.Now().UTC().Format(time.RFC3339),
		Repro: fmt.Sprintf("bash perfbench/run.sh --workload %s --seed %d --seconds %d --trace %d",
			name, seed, seconds, trace),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// saw one (a checkout that is not a git repository has none; the source
// hash identifies the code then).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests the module's Go sources and go.mod files under the
// working directory, skipping build output, so a record names its code
// even without version control.
func sourceHash() string {
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeRecord writes the run's full record: header, verdict, metrics,
// detail and, for traced runs, every span.
func writeRecord(hdr header, r *run, tr *tracer) error {
	if err := os.MkdirAll(recordDir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"header": hdr, "attempted": r.attempted, "failed": r.failed,
		"mismatches": r.wrong, "errors": r.errs, "metrics": r.metrics, "detail": r.detail,
	}
	if tr != nil {
		rec["spans"] = tr.spans
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	p := filepath.Join(recordDir, fmt.Sprintf("%s-seed%d-trace%d.json", hdr.Workload, hdr.Seed, hdr.Trace))
	return os.WriteFile(p, b, 0o644)
}
