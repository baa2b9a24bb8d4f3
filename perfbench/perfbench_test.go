package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"microlonys"
	"microlonys/internal/jobs"
)

func TestInputsFollowSeed(t *testing.T) {
	a, b, c := genDump(7, 30_000), genDump(7, 30_000), genDump(8, 30_000)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different dumps")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds, same dump")
	}
	if e := genExactDump(7, 30_000); len(e) != 30_000 || !bytes.Equal(e, genExactDump(7, 30_000)) {
		t.Fatalf("exact dump: %d bytes or not deterministic", len(e))
	}

	arch, err := microlonys.ArchiveReader(bytes.NewReader(genDump(1, 200_000)), bulkOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	vol := arch.Volume
	if vol.Sheets() < 3 {
		t.Fatalf("want a multi-sheet volume, got %d sheets", vol.Sheets())
	}
	d1, _ := damagePlan(7, vol)
	d2, _ := damagePlan(7, vol)
	d3, _ := damagePlan(8, vol)
	if !reflect.DeepEqual(d1, d2) || reflect.DeepEqual(d1, d3) {
		t.Fatalf("damage plans: seed 7 %v / %v, seed 8 %v", d1, d2, d3)
	}
	for _, f := range d1 {
		if f.Index < vol.ReservedSlots() {
			t.Fatalf("damage plan hits reserved slot: %v", f)
		}
	}
	if p, q := makeBagPlan(7, 12), makeBagPlan(7, 12); !reflect.DeepEqual(p, q) {
		t.Fatal("same seed, different bags")
	}
	if p, q := makeBagPlan(7, 12), makeBagPlan(8, 12); reflect.DeepEqual(p, q) {
		t.Fatal("different seeds, same bag")
	}
}

func TestQuerySequence(t *testing.T) {
	tables := []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"}
	a := querySequence(7, 4*queryBlock, 1_000_000, tables)
	if !reflect.DeepEqual(a, querySequence(7, 4*queryBlock, 1_000_000, tables)) {
		t.Fatal("same seed, different query sequences")
	}
	if reflect.DeepEqual(a, querySequence(8, 4*queryBlock, 1_000_000, tables)) {
		t.Fatal("different seeds, same query sequence")
	}
	kinds := map[jobs.Kind]int{}
	perTable := map[string]int{}
	for _, q := range a {
		kinds[q.Kind]++
		switch q.Kind {
		case jobs.KindRange:
			if q.Off < 0 || q.Off+q.Length > 1_000_000 || q.Length != queryRangeBytes {
				t.Fatalf("range out of bounds: %+v", q)
			}
		case jobs.KindTable:
			perTable[q.Table]++
		}
	}
	if kinds[jobs.KindRange] != 96 || kinds[jobs.KindTable] != 32 || kinds[jobs.KindListIndex] != 8 {
		t.Fatalf("mix %v, want 96/32/8", kinds)
	}
	for _, name := range tables {
		if n := perTable[name]; n != 4 {
			t.Fatalf("table %s queried %d times in 4 blocks, want 4", name, n)
		}
	}
}

// TestReplayMatchesFacade pins the layer replay to the facade's bytes:
// the archive replay writes the same group frames, and the restore,
// emulated-restore and range replays return the same output.
func TestReplayMatchesFacade(t *testing.T) {
	tr := newTracer()

	dump := genDump(3, 60_000)
	arch, err := microlonys.ArchiveReader(bytes.NewReader(dump), bulkOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	vol, err := replayArchive(tr, 0, dump, bulkOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameGroupFrames(arch.Volume, vol); err != nil {
		t.Fatal(err)
	}
	plan, err := damagePlan(3, arch.Volume)
	if err != nil {
		t.Fatal(err)
	}
	if err := applyDamage(arch.Volume, plan); err != nil {
		t.Fatal(err)
	}
	want, _, err := microlonys.RestoreVolume(arch.Volume, arch.BootstrapText, microlonys.RestoreOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, counts, err := replayRestore(tr, 0, arch.Volume, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || !bytes.Equal(got, dump) {
		t.Fatal("restore replay differs from the facade")
	}
	if counts.decodeFailed != len(plan) {
		t.Fatalf("replay saw %d failed frames, %d destroyed", counts.decodeFailed, len(plan))
	}
	if _, n := tr.layer(spRecover, 0); n != len(plan) {
		t.Fatalf("replay recovered %d groups, want %d", n, len(plan))
	}

	small := genDump(4, 6_000)
	earch, err := microlonys.Archive(small, emulatedOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err = microlonys.RestoreWith(earch.Medium, earch.BootstrapText, microlonys.RestoreOptions{Mode: microlonys.RestoreDynaRisc})
	if err != nil {
		t.Fatal(err)
	}
	got, counts, err = replayRestore(tr, 0, earch.Volume, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) || counts.moSteps == 0 || counts.dbSteps == 0 {
		t.Fatalf("emulated replay differs from the facade (steps %d/%d)", counts.moSteps, counts.dbSteps)
	}

	qdump := genDump(5, 400_000)
	qarch, err := microlonys.ArchiveReader(bytes.NewReader(qdump), queryOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, len(qdump) / 3, len(qdump) - queryRangeBytes} {
		want, _, err := microlonys.RestoreRange(qarch.Volume, qarch.BootstrapText, off, queryRangeBytes, microlonys.RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := replayRange(tr, 0, qarch.Volume, off, queryRangeBytes)
		if err != nil {
			t.Fatalf("range at %d: %v", off, err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, qdump[off:off+queryRangeBytes]) {
			t.Fatalf("range replay at %d differs from the facade", off)
		}
	}
}

// TestClosedLoop runs one block of the query mix through the job engine
// and checks every result was verified.
func TestClosedLoop(t *testing.T) {
	in, err := setupQuery(6, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun()
	samples, _, err := closedLoop(r, in, 0, queryBlock, nil, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != queryBlock || r.failed != 0 || len(samples) != queryBlock {
		t.Fatalf("attempted %d, failed %d (%v %v), samples %d", r.attempted, r.failed, r.errs, r.wrong, len(samples))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); fmt.Sprintf("%.6f", got) != fmt.Sprintf("%.6f", c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

// TestHostClock checks the reference load: every goroutine completes at
// least one pass even with no time given, and the scale is the reference
// pass time over the measured one.
func TestHostClock(t *testing.T) {
	h := &hostClock{}
	h.calibrate(0)
	if h.passes < runtime.GOMAXPROCS(0) || len(h.calibrateMS) != 1 {
		t.Fatalf("passes %d, calibrations %d", h.passes, len(h.calibrateMS))
	}
	h.calibrate(40 * time.Millisecond)
	if k := h.scale(); math.Abs(k*h.passMS()-refPassMS) > 1e-9 || k <= 0 {
		t.Errorf("scale %v for %v ms a pass", k, h.passMS())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric lists in
// step with what the runs print.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, code runs %v", names, want)
	}

	r := newRun()
	r.endToEnd([]float64{1}, 1, []float64{1}, 1, 1, 1, &hostClock{passes: 1, coreMS: 1})
	if len(spec.EndToEnd) != len(r.metrics) {
		t.Errorf("%d end-to-end metrics declared, %d printed", len(spec.EndToEnd), len(r.metrics))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := r.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
	tr := newTraceRun()
	if len(spec.PerLayer) != len(tr.metrics) {
		t.Errorf("%d per-layer metrics declared, %d printed", len(spec.PerLayer), len(tr.metrics))
	}
	for _, m := range spec.PerLayer {
		if got, ok := tr.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("per-layer %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
}
