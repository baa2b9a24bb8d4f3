package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"microlonys"
	"microlonys/internal/jobs"
	"microlonys/internal/sqldump"
)

// Input sizes (bytes of SQL dump).
const (
	bulkDumpBytes = 3_000_000
	// About 21 data frames: clear of the 17-frame group boundary, where
	// one seed's dump would need a second group and another's would not.
	emulatedDumpBytes = 300_000
	queryDumpBytes    = 3_000_000

	setupRepeats = 3 // setups per run; setup_s is their median
	minQueries   = 100
)

// errMismatch marks an operation that returned wrong bytes.
var errMismatch = errors.New("output differs from the generated input")

// run is one workload run's tally: operations attempted and failed, the
// verdict, the metrics and the record's extra detail.
type run struct {
	attempted, failed int
	wrong             []string // mismatched outputs (any fails the run)
	errs              []string // first few operation errors
	metrics           map[string]metric
	detail            map[string]any
}

func newRun() *run { return &run{metrics: map[string]metric{}, detail: map[string]any{}} }

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// check counts one attempted operation and its failure, if any.
func (r *run) check(op string, err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if errors.Is(err, errMismatch) {
		r.wrong = append(r.wrong, fmt.Sprintf("%s: %v", op, err))
	} else if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", op, err))
	}
	return false
}

func equalOrMismatch(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w (%d vs %d bytes)", errMismatch, len(got), len(want))
	}
	return nil
}

// timedSetup runs setup setupRepeats times and returns the last result
// with the set-up times.
func timedSetup[T any](setup func() (T, error)) (T, []float64, error) {
	var out T
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return out, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		out = v
		runtime.GC() // drop the previous repeat's inputs before the next
	}
	return out, secs, nil
}

// endToEnd sets the metrics every workload reports from the op latencies
// (ms) and the measured time without the reference loads (active). The
// timings are rescaled to the reference host (calib.go); the raw figures
// go to the record. The latency metric is a mean: the query workload's
// range jobs decode one or two outer-code groups, about half each, so
// their median jumps between the two modes from seed to seed while the
// mean moves with the mix. The median is kept in the record.
func (r *run) endToEnd(setupS []float64, mb float64, opMS []float64, ops int, active time.Duration, frames int, clock *hostClock) {
	k := clock.scale()
	r.set("setup_s", "s", median(setupS)*k)
	r.set("op_ms_ref", "ms", mean(opMS)*k)
	r.set("MBps_ref", "MB/s", ratio(mb, mean(opMS)*k/1000))
	r.set("ops_per_s_ref", "1/s", ratio(float64(ops), active.Seconds()*k))
	r.set("frames_per_MB", "frames/MB", float64(frames)/mb)
	r.set("peak_rss_MB", "MB", peakRSSMB())
	r.detail["raw_setup_s"] = setupS
	r.detail["op_samples"] = len(opMS)
	r.detail["host_scale"] = k
	r.detail["calibration_ms"] = clock.calibrateMS
	r.detail["calibration_pass_ms"] = clock.passMS()
	r.detail["raw_op_mean_ms"] = mean(opMS)
	r.detail["raw_op_p50_ms"] = median(opMS)
	r.detail["raw_MBps"] = ratio(mb, mean(opMS)/1000)
	r.detail["raw_ops_per_s"] = ratio(float64(ops), active.Seconds())
}

// ---- bulk-roundtrip ----------------------------------------------------

type bulkInput struct {
	dump []byte
}

func setupBulk(seed int64) (*bulkInput, error) {
	return &bulkInput{dump: genExactDump(seed, bulkDumpBytes)}, nil
}

// roundTrip is one bulk-roundtrip operation set: archive, damage, full
// restore, salvage of the shuffled bag. Each facade call is verified.
type roundTrip struct {
	arch                      *microlonys.Archived
	archive, restore, salvage time.Duration
}

func bulkRoundTrip(r *run, seed int64, in *bulkInput, workers int, tr *tracer) (*roundTrip, error) {
	rt := &roundTrip{}
	var err error
	t0 := time.Now()
	id := tr.begin(fmt.Sprintf("microlonys.ArchiveReader/w%d", workers), 0)
	rt.arch, err = microlonys.ArchiveReader(bytes.NewReader(in.dump), bulkOptions(workers))
	tr.end(id)
	rt.archive = time.Since(t0)
	if !r.check("archive", err) {
		return nil, err
	}
	vol := rt.arch.Volume
	plan, err := damagePlan(seed, vol)
	if err != nil {
		return nil, err
	}
	if err := applyDamage(vol, plan); err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	buf.Grow(len(in.dump))
	t0 = time.Now()
	id = tr.begin(fmt.Sprintf("microlonys.RestoreTo/w%d", workers), 0)
	st, err := microlonys.RestoreTo(&buf, vol, rt.arch.BootstrapText, microlonys.RestoreOptions{Workers: workers})
	tr.end(id)
	rt.restore = time.Since(t0)
	if err == nil {
		err = equalOrMismatch(buf.Bytes(), in.dump)
	}
	// One destroyed frame per sheet: every sheet's damaged group must
	// have gone through the outer code.
	if err == nil && st.GroupsRecovered != vol.Sheets() {
		err = fmt.Errorf("outer code ran on %d groups for %d damaged sheets", st.GroupsRecovered, vol.Sheets())
	}
	r.check("restore", err)

	bag, err := makeBagPlan(seed, vol.Sheets()).bag(vol)
	if err != nil {
		return nil, err
	}
	t0 = time.Now()
	id = tr.begin(fmt.Sprintf("microlonys.Salvage/w%d", workers), 0)
	out, rep, err := microlonys.Salvage(bag, microlonys.SalvageOptions{Workers: workers})
	tr.end(id)
	rt.salvage = time.Since(t0)
	if err == nil && !rep.Complete {
		err = fmt.Errorf("%w: salvage report incomplete", errMismatch)
	}
	if err == nil {
		err = equalOrMismatch(out, in.dump)
	}
	r.check("salvage", err)
	return rt, nil
}

func runBulk(seed int64, dur time.Duration) (*run, error) {
	r := newRun()
	warmUp()
	in, setupS, err := timedSetup(func() (*bulkInput, error) { return setupBulk(seed) })
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	var cycle, arch, rest, salv []float64
	frames := 0
	clock := &hostClock{}
	var active time.Duration
	start := time.Now()
	for time.Since(start) < dur {
		t0 := time.Now()
		rt, err := bulkRoundTrip(r, seed, in, workers, nil)
		d := time.Since(t0)
		active += d
		if err != nil {
			return r, err
		}
		frames = rt.arch.Manifest.TotalFrames
		arch = append(arch, ms(rt.archive))
		rest = append(rest, ms(rt.restore))
		salv = append(salv, ms(rt.salvage))
		cycle = append(cycle, ms(rt.archive+rt.restore+rt.salvage))
		clock.calibrate(d)
	}
	mb := float64(len(in.dump)) / 1e6
	r.endToEnd(setupS, mb, cycle, len(cycle), active, frames, clock)
	r.detail["input_MB"] = mb
	r.detail["round_trips"] = len(cycle)
	r.detail["op"] = "one round trip: ArchiveReader + RestoreTo + Salvage at workers=GOMAXPROCS"
	r.detail["raw_archive_MBps"] = mb / (mean(arch) / 1000)
	r.detail["raw_restore_MBps"] = mb / (mean(rest) / 1000)
	r.detail["raw_salvage_MBps"] = mb / (mean(salv) / 1000)
	r.detail["samples_ms"] = map[string][]float64{"archive": arch, "restore": rest, "salvage": salv}
	return r, nil
}

// warmUp runs one small untimed round trip and one reference load so the
// once-per-process work (building the archived decoder programs) happens
// before any timing.
func warmUp() {
	(&hostClock{}).calibrate(0)
	data := genDump(1, 20_000)
	arch, err := microlonys.Archive(data, emulatedOptions(0))
	if err == nil {
		_, _, _ = microlonys.RestoreWith(arch.Medium, arch.BootstrapText, microlonys.RestoreOptions{})
	}
}

// ---- emulated-restore --------------------------------------------------

type emulatedInput struct {
	dump []byte
	arch *microlonys.Archived
}

func setupEmulated(seed int64) (*emulatedInput, error) {
	dump := genExactDump(seed, emulatedDumpBytes)
	arch, err := microlonys.Archive(dump, emulatedOptions(0))
	if err != nil {
		return nil, err
	}
	return &emulatedInput{dump: dump, arch: arch}, nil
}

func emulatedRestore(r *run, in *emulatedInput, workers int, tr *tracer) time.Duration {
	t0 := time.Now()
	id := tr.begin(fmt.Sprintf("microlonys.RestoreWith/dynarisc/w%d", workers), 0)
	out, _, err := microlonys.RestoreWith(in.arch.Medium, in.arch.BootstrapText,
		microlonys.RestoreOptions{Mode: microlonys.RestoreDynaRisc, Workers: workers})
	tr.end(id)
	d := time.Since(t0)
	if err == nil {
		err = equalOrMismatch(out, in.dump)
	}
	r.check("emulated restore", err)
	return d
}

func runEmulated(seed int64, dur time.Duration) (*run, error) {
	r := newRun()
	warmUp()
	in, setupS, err := timedSetup(func() (*emulatedInput, error) { return setupEmulated(seed) })
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0)
	var lat []float64
	clock := &hostClock{}
	var active time.Duration
	start := time.Now()
	for time.Since(start) < dur {
		d := emulatedRestore(r, in, workers, nil)
		lat = append(lat, ms(d))
		active += d
		clock.calibrate(d)
	}
	mb := float64(len(in.dump)) / 1e6
	r.endToEnd(setupS, mb, lat, len(lat), active, in.arch.Manifest.TotalFrames, clock)
	r.detail["input_MB"] = mb
	r.detail["op"] = "one RestoreWith(RestoreDynaRisc) at workers=GOMAXPROCS"
	r.detail["samples_ms"] = lat
	return r, nil
}

// ---- query-service -----------------------------------------------------

type queryInput struct {
	dump    []byte
	arch    *microlonys.Archived
	tables  map[string][]byte // expected table extents (sqldump.Sections)
	names   []string          // the index's table list, in index order
	queries []query
}

func setupQuery(seed int64, dumpBytes int) (*queryInput, error) {
	dump := genDump(seed, dumpBytes)
	arch, err := microlonys.ArchiveReader(bytes.NewReader(dump), queryOptions(0))
	if err != nil {
		return nil, err
	}
	idx, _, err := microlonys.ListIndex(arch.Volume, arch.BootstrapText, microlonys.RestoreOptions{})
	if err != nil {
		return nil, err
	}
	secs, err := sqldump.Sections(dump)
	if err != nil {
		return nil, err
	}
	in := &queryInput{dump: dump, arch: arch, tables: map[string][]byte{}, names: idx.Tables()}
	for _, s := range secs {
		in.tables[s.Table] = dump[s.Off : s.Off+s.Len]
	}
	in.queries = querySequence(seed, 4096, len(dump), in.names)
	return in, nil
}

func (in *queryInput) request(q query) jobs.Request {
	return jobs.Request{
		Kind: q.Kind, Volume: in.arch.Volume, BootstrapText: in.arch.BootstrapText,
		Off: q.Off, Length: q.Length, Table: q.Table,
	}
}

// verify checks one query result against the generated input.
func (in *queryInput) verify(q query, res jobs.Result) error {
	switch q.Kind {
	case jobs.KindRange:
		return equalOrMismatch(res.Data, in.dump[q.Off:q.Off+q.Length])
	case jobs.KindTable:
		return equalOrMismatch(res.Data, in.tables[q.Table])
	default:
		if res.Index == nil || res.Index.RawLen != len(in.dump) || fmt.Sprint(res.Index.Tables()) != fmt.Sprint(in.names) {
			return fmt.Errorf("%w: index listing", errMismatch)
		}
		return nil
	}
}

// querySample is one completed job as its client saw it.
type querySample struct {
	q       query
	client  time.Duration
	snap    jobs.Snapshot
	stats   *microlonys.RestoreStats
	resultB int
}

// closedLoop drives a jobs.Manager (Workers 2, the engine behind
// microlonysd) with two clients, each submitting one job at a time and
// waiting for its result. The clients work through the seeded sequence
// one block at a time: every job of a block completes before the next
// block starts, and when clock is set the reference load runs in
// between. Issuing stops at a block boundary once dur has passed and at
// least minN jobs were issued. The returned duration is the time spent
// in blocks.
func closedLoop(r *run, in *queryInput, dur time.Duration, minN int, clock *hostClock, tr *tracer) ([]querySample, time.Duration, error) {
	m, err := jobs.New(jobs.Config{Workers: 2, QueueDepth: 4})
	if err != nil {
		return nil, 0, err
	}
	var (
		mu      sync.Mutex
		samples []querySample
		active  time.Duration
	)
	start := time.Now()
	for issued := 0; issued < minN || time.Since(start) < dur; issued += queryBlock {
		block := make(chan query, queryBlock)
		for i := 0; i < queryBlock; i++ {
			block <- in.queries[(issued+i)%len(in.queries)]
		}
		close(block)
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := range block {
					t0 := time.Now()
					root := tr.begin("query/"+string(q.Kind), 0)
					sid := tr.begin("jobs.Manager.Submit", root)
					id, err := m.Submit(in.request(q))
					tr.end(sid)
					var res jobs.Result
					var snap jobs.Snapshot
					if err == nil {
						wid := tr.begin("jobs.Manager.Wait", root)
						res, snap, err = m.Wait(context.Background(), id)
						tr.end(wid)
					}
					tr.end(root)
					lat := time.Since(t0)
					if err == nil {
						err = in.verify(q, res)
					}
					mu.Lock()
					if r.check("query "+string(q.Kind), err) {
						samples = append(samples, querySample{q, lat, snap, res.Stats, len(res.Data)})
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		d := time.Since(t0)
		active += d
		if clock != nil {
			clock.calibrate(d)
		}
	}
	if err := m.Drain(context.Background()); err != nil {
		return nil, 0, err
	}
	return samples, active, nil
}

func runQuery(seed int64, dur time.Duration) (*run, error) {
	r := newRun()
	warmUp()
	in, setupS, err := timedSetup(func() (*queryInput, error) { return setupQuery(seed, queryDumpBytes) })
	if err != nil {
		return nil, err
	}
	clock := &hostClock{}
	samples, active, err := closedLoop(r, in, dur, minQueries, clock, nil)
	if err != nil {
		return r, err
	}
	lat := map[jobs.Kind][]float64{}
	var all []float64
	resultB := 0
	for _, s := range samples {
		lat[s.q.Kind] = append(lat[s.q.Kind], ms(s.client))
		all = append(all, ms(s.client))
		resultB += s.resultB
	}
	mb := float64(len(in.dump)) / 1e6
	// The op is the 4 KB range job, the mix's dominant kind: its latency
	// is the figure a per-query fixed cost moves. Table and listing jobs
	// are the background load; all jobs count in ops_per_s_ref.
	r.endToEnd(setupS, mb, lat[jobs.KindRange], len(samples), active, in.arch.Manifest.TotalFrames, clock)
	// A query returns a few KB, so MBps here is result bytes per second
	// of the closed loop, not input MB over the mean latency.
	r.set("MBps_ref", "MB/s", ratio(float64(resultB)/1e6, active.Seconds()*clock.scale()))
	r.detail["raw_MBps"] = float64(resultB) / 1e6 / active.Seconds()
	r.detail["jobs"] = len(all)
	r.detail["query_p50_ms"] = median(all)
	r.detail["query_p90_ms"] = percentile(all, 90)
	r.detail["beyond_p90"] = len(all) - int(math.Ceil(0.9*float64(len(all))))
	r.detail["op"] = "one 4 KB range job submitted to jobs.Manager and awaited by one of 2 closed-loop clients, amid table and listindex jobs"
	r.detail["samples_ms"] = lat
	return r, nil
}
