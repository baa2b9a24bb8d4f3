package core

// Selective-restore differentials: RestoreRange and RestoreTable must
// return exactly the corresponding slice of a full Restore — at workers
// 1, 2 and 8, through damage, Partial mode and index loss — while
// touching only the frames the query needs.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/tpch"
)

// indexedArchive archives a small TPC-H dump onto an indexed catalog
// volume of several sheets. Returns the archive and the dump bytes.
func indexedArchive(t *testing.T, compress bool) (*Archived, []byte) {
	t.Helper()
	prof := tinyProfile()
	capacity := mocoder.Capacity(prof.Layout)
	_, db := tpch.FitScaleFactor(40*capacity, 7, sqldump.Dump)
	data := sqldump.Dump(db)
	opts := DefaultOptions(prof)
	opts.Compress = compress
	opts.CompressDepth = 1
	opts.SheetFrames = 22 // 17+3 group + catalog + index slots
	opts.Catalog = true
	opts.Index = true
	opts.IndexBlockBytes = 4 * capacity
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 2 {
		t.Fatalf("want a multi-sheet volume, got %d sheets", arch.Volume.Sheets())
	}
	if arch.Manifest.IndexFrames != arch.Volume.Sheets() {
		t.Fatalf("manifest: %+v", arch.Manifest)
	}
	return arch, data
}

// checkRange asserts one indexed range query against the input slice at
// workers 1, 2 and 8, and that the frame accounting reconciles.
func checkRange(t *testing.T, arch *Archived, data []byte, off, length int) *RestoreStats {
	t.Helper()
	var last *RestoreStats
	for _, workers := range []int{1, 2, 8} {
		got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, off, length,
			RestoreOptions{Mode: RestoreNative, Workers: workers})
		if err != nil {
			t.Fatalf("range %d:%d workers=%d: %v", off, length, workers, err)
		}
		if !bytes.Equal(got, data[off:off+length]) {
			t.Fatalf("range %d:%d workers=%d: bytes differ from input slice", off, length, workers)
		}
		if st.IndexFallbacks != 0 {
			t.Fatalf("range %d:%d workers=%d: unexpected fallback: %+v", off, length, workers, st)
		}
		if st.FramesScanned+st.FramesSkipped != arch.Volume.FrameCount() {
			t.Fatalf("range %d:%d workers=%d: %d scanned + %d skipped != %d frames",
				off, length, workers, st.FramesScanned, st.FramesSkipped, arch.Volume.FrameCount())
		}
		last = st
	}
	return last
}

// TestRestoreRangeMatchesFullSlice: every queried range of a compressed
// indexed volume is byte-identical to the same slice of the input —
// boundary ranges, block-crossing ranges, the whole archive and the
// empty range — and small queries skip most of the volume.
func TestRestoreRangeMatchesFullSlice(t *testing.T) {
	arch, data := indexedArchive(t, true)

	// The full restore is the reference the slices are checked against.
	full, _, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, data) {
		t.Fatal("full restore differs from input")
	}

	n := len(data)
	st := checkRange(t, arch, data, 0, 200)
	if st.FramesSkipped == 0 || st.GroupsDecoded == 0 {
		t.Fatalf("head query skipped nothing: %+v", st)
	}
	checkRange(t, arch, data, n-200, 200)
	checkRange(t, arch, data, n/3, n/3) // spans restart blocks
	checkRange(t, arch, data, 0, n)
	st = checkRange(t, arch, data, n/2, 0)
	if st.GroupsDecoded != 0 {
		t.Fatalf("empty query decoded groups: %+v", st)
	}

	// Beyond-the-archive ranges are rejected, not truncated.
	if _, _, err := RestoreRange(arch.Volume, arch.BootstrapText, n-10, 20,
		RestoreOptions{Mode: RestoreNative}); err == nil {
		t.Fatal("out-of-range query succeeded")
	}
}

// TestRestoreRangeRawArchive: the same differential on an uncompressed
// volume, where ranges map directly to group extents.
func TestRestoreRangeRawArchive(t *testing.T) {
	arch, data := indexedArchive(t, false)
	n := len(data)
	st := checkRange(t, arch, data, 0, 100)
	if st.FramesSkipped == 0 {
		t.Fatalf("head query skipped nothing: %+v", st)
	}
	checkRange(t, arch, data, n-100, 100)
	checkRange(t, arch, data, n/2, n/4)
	checkRange(t, arch, data, 0, n)
}

// TestRestoreTableMatchesFullSlice: table and column queries return
// exactly the extent sqldump locates in the input, and unknown names
// surface an error naming the miss.
func TestRestoreTableMatchesFullSlice(t *testing.T) {
	arch, data := indexedArchive(t, true)
	secs, err := sqldump.Sections(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(secs) < 2 {
		t.Fatalf("want several tables, got %d", len(secs))
	}
	for _, sec := range secs[:2] {
		for _, workers := range []int{1, 2, 8} {
			got, st, err := RestoreTable(arch.Volume, arch.BootstrapText, sec.Table,
				RestoreOptions{Mode: RestoreNative, Workers: workers})
			if err != nil {
				t.Fatalf("table %q workers=%d: %v", sec.Table, workers, err)
			}
			if !bytes.Equal(got, data[sec.Off:sec.Off+sec.Len]) {
				t.Fatalf("table %q workers=%d: bytes differ from input extent", sec.Table, workers)
			}
			if st.IndexFallbacks != 0 || st.FramesScanned+st.FramesSkipped != arch.Volume.FrameCount() {
				t.Fatalf("table %q workers=%d: stats %+v", sec.Table, workers, st)
			}
		}
	}

	// A column restores its owning table's rows region (the minimal
	// contiguous cover).
	sec := secs[0]
	col := sec.Table + "." + sec.Columns[0]
	got, _, err := RestoreSection(arch.Volume, arch.BootstrapText, col, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[sec.Off:sec.Off+sec.Len]) {
		t.Fatalf("column %q differs from its table extent", col)
	}

	if _, _, err := RestoreTable(arch.Volume, arch.BootstrapText, "no_such_table",
		RestoreOptions{Mode: RestoreNative}); err == nil || !strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("unknown table: got %v", err)
	}
}

// TestRestoreRangeDamagedGroup: damage within the parity budget of the
// queried group recovers bit-exact; a sheet destroyed outside the query
// does not touch it at all — the selective query succeeds where the
// strict full restore fails.
func TestRestoreRangeDamagedGroup(t *testing.T) {
	arch, data := indexedArchive(t, true)

	// Three frames of the first payload group (locals 2..4 after the
	// catalog and index slots) — exactly the outer-code budget.
	for local := 2; local <= 4; local++ {
		if err := arch.Volume.Destroy(0, local); err != nil {
			t.Fatal(err)
		}
	}
	st := checkRange(t, arch, data, 0, 300)
	if st.GroupsRecovered == 0 {
		t.Fatalf("damaged group not recovered: %+v", st)
	}

	// Destroy the last sheet entirely: queries over the first group still
	// answer, while the strict full restore now fails.
	if err := arch.Volume.DestroySheet(arch.Volume.Sheets() - 1); err != nil {
		t.Fatal(err)
	}
	checkRange(t, arch, data, 0, 300)
	if _, _, err := RestoreVolume(arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative}); err == nil {
		t.Fatal("strict full restore succeeded despite a destroyed sheet")
	}
}

// TestRestoreRangePartialLoss: a group lost beyond parity inside the
// query zero-fills exactly the bytes the full Partial restore zero-fills.
func TestRestoreRangePartialLoss(t *testing.T) {
	arch, data := indexedArchive(t, false) // raw: Partial holes stay local
	if err := arch.Volume.DestroySheet(0); err != nil {
		t.Fatal(err)
	}

	var fullBuf bytes.Buffer
	_, err := RestoreToWriter(&fullBuf, arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	full := fullBuf.Bytes()
	if len(full) != len(data) || bytes.Equal(full, data) {
		t.Fatalf("partial reference: len %d vs %d", len(full), len(data))
	}

	off, length := 0, 4000 // inside the lost sheet's groups
	for _, workers := range []int{1, 2, 8} {
		got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, off, length,
			RestoreOptions{Mode: RestoreNative, Partial: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, full[off:off+length]) {
			t.Fatalf("workers=%d: partial range differs from full partial slice", workers)
		}
		if st.GroupsLost == 0 || st.BytesLost == 0 {
			t.Fatalf("workers=%d: loss not reported: %+v", workers, st)
		}
	}

	// Without Partial the same query is a hard error.
	if _, _, err := RestoreRange(arch.Volume, arch.BootstrapText, off, length,
		RestoreOptions{Mode: RestoreNative}); err == nil {
		t.Fatal("strict query over a lost group succeeded")
	}
}

// TestRestoreRangeGroupReportsMatchFull: a range query closes its groups
// through the same group-close step as a full restore. On an indexed raw
// volume with one group damaged within parity (recovered) and another
// beyond it under Partial (lost, though its surviving headers still
// identify it), a range over both groups returns identical RestoreStats
// at workers 1, 2 and 8, and each GroupReport matches the full Partial
// restore's report for the same group on everything but Verified —
// selective restore reads no catalog.
func TestRestoreRangeGroupReportsMatchFull(t *testing.T) {
	arch, data := indexedArchive(t, false)
	// Sheet s holds group s behind its catalog and index slots: destroy
	// three frames of group 0 and four of group 1.
	for sheet, n := range []int{3, 4} {
		for local := 2; local < 2+n; local++ {
			if err := arch.Volume.Destroy(sheet, local); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, full, err := RestoreVolume(arch.Volume, arch.BootstrapText,
		RestoreOptions{Mode: RestoreNative, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	fullReports := map[int]GroupReport{}
	for _, g := range full.Groups {
		fullReports[g.ID] = g
	}

	length := 2 * arch.Options.GroupData * mocoder.Capacity(arch.Options.Profile.Layout)
	if length > len(data) {
		t.Fatalf("archive of %d bytes holds fewer than two full groups (%d bytes)", len(data), length)
	}
	var first *RestoreStats
	for _, workers := range []int{1, 2, 8} {
		_, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 0, length,
			RestoreOptions{Mode: RestoreNative, Partial: true, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if first == nil {
			first = st
		} else if !reflect.DeepEqual(st, first) {
			t.Fatalf("workers=%d: stats differ from workers=1:\n%+v\n%+v", workers, st, first)
		}
	}
	if len(first.Groups) != 2 || first.GroupsRecovered != 1 || first.GroupsLost != 1 {
		t.Fatalf("want groups 0 (recovered) and 1 (lost), got %+v", first)
	}
	for _, got := range first.Groups {
		want, ok := fullReports[got.ID]
		if !ok {
			t.Fatalf("group %d: no report from the full restore", got.ID)
		}
		if got.Sheet != want.Sheet || got.Kind != want.Kind || got.Frames != want.Frames ||
			got.Missing != want.Missing || got.Recovered != want.Recovered || got.Lost != want.Lost {
			t.Errorf("group %d: range report %+v, full restore %+v", got.ID, got, want)
		}
	}
}

// TestRestoreRangeCorruptIndexFallsBack: with every index emblem gone —
// and no catalog replica to fall back on — a range query silently takes
// the full-restore path, counted in IndexFallbacks, and still returns
// the exact slice.
func TestRestoreRangeCorruptIndexFallsBack(t *testing.T) {
	prof := tinyProfile()
	capacity := mocoder.Capacity(prof.Layout)
	data := testPayload(30 * capacity)
	opts := DefaultOptions(prof)
	opts.CompressDepth = 1
	opts.SheetFrames = 21 // group + index slot, no catalog
	opts.Index = true
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < arch.Volume.Sheets(); s++ {
		if err := arch.Volume.Destroy(s, 0); err != nil { // the index slot
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 100, 500,
			RestoreOptions{Mode: RestoreNative, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, data[100:600]) {
			t.Fatalf("workers=%d: fallback bytes differ", workers)
		}
		if st.IndexFallbacks == 0 {
			t.Fatalf("workers=%d: fallback not counted: %+v", workers, st)
		}
	}

	// A volume archived with no index at all falls back the same way.
	plain, err := CreateArchive(data, DefaultOptions(prof))
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := RestoreRange(plain.Volume, plain.BootstrapText, 0, 256,
		RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:256]) || st.IndexFallbacks == 0 {
		t.Fatalf("index-free fallback: %+v", st)
	}
}

// TestRestoreCatalogIndexReplica: with the index emblems destroyed but
// the catalogs alive, the query recovers the index from the catalog's
// compressed replica instead of falling back. Needs a frame large enough
// that the catalog's trim ladder keeps the replica.
func TestRestoreCatalogIndexReplica(t *testing.T) {
	l := emblem.Layout{DataW: 480, DataH: 360, PxPerModule: 2}
	prof := media.Profile{
		Name:   "replica-test",
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
	}
	capacity := mocoder.Capacity(l)
	data := testPayload(10 * capacity)
	opts := DefaultOptions(prof)
	opts.Compress = false
	opts.GroupData = 4
	opts.SheetFrames = 9 // one 4+3 group + catalog + index slots
	opts.Catalog = true
	opts.Index = true
	arch, err := CreateArchive(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Volume.Sheets() < 2 {
		t.Fatalf("want a multi-sheet volume, got %d sheets", arch.Volume.Sheets())
	}
	for s := 0; s < arch.Volume.Sheets(); s++ {
		if err := arch.Volume.Destroy(s, 1); err != nil { // the index slot
			t.Fatal(err)
		}
	}
	got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 0, 300,
		RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[:300]) {
		t.Fatal("replica-indexed bytes differ")
	}
	if st.IndexFallbacks != 0 || st.CatalogFrames == 0 {
		t.Fatalf("replica not used: %+v", st)
	}
}

// TestListIndexReportsSections: ListIndex reads the index from a single
// probe and reports the dump's tables without decoding any payload.
func TestListIndexReportsSections(t *testing.T) {
	arch, data := indexedArchive(t, true)
	x, st, err := ListIndex(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: RestoreNative})
	if err != nil {
		t.Fatal(err)
	}
	if x.RawLen != len(data) || x.ArchiveID != arch.Manifest.ArchiveID || !x.Compress {
		t.Fatalf("index header: %+v", x)
	}
	secs, err := sqldump.Sections(data)
	if err != nil {
		t.Fatal(err)
	}
	tables := x.Tables()
	if len(tables) != len(secs) {
		t.Fatalf("index lists %d tables, dump has %d", len(tables), len(secs))
	}
	if st.GroupsDecoded != 0 || st.FramesScanned+st.FramesSkipped != arch.Volume.FrameCount() {
		t.Fatalf("list stats: %+v", st)
	}
}

// TestRestoreIndexedVolumeFull: an indexed volume still restores in full
// bit-exact — the index emblems are consumed out-of-band — in both
// native and emulated modes (the DBS1 seekable stream decodes through
// the archived DBDecode program block by block).
func TestRestoreIndexedVolumeFull(t *testing.T) {
	arch, data := indexedArchive(t, true)
	for _, mode := range []Mode{RestoreNative, RestoreDynaRisc} {
		got, st, err := RestoreVolume(arch.Volume, arch.BootstrapText, RestoreOptions{Mode: mode})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("mode %s: full restore differs", mode)
		}
		if st.IndexFrames != arch.Volume.Sheets() {
			t.Fatalf("mode %s: index frames not tallied: %+v", mode, st)
		}
	}
}

// TestRestoreRangeDynaRisc: a range query under emulation runs the
// archived DBDecode program over only the overlapping restart blocks and
// still matches the input slice.
func TestRestoreRangeDynaRisc(t *testing.T) {
	arch, data := indexedArchive(t, true)
	got, st, err := RestoreRange(arch.Volume, arch.BootstrapText, 64, 512,
		RestoreOptions{Mode: RestoreDynaRisc})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[64:64+512]) {
		t.Fatal("emulated range differs from input slice")
	}
	if st.FramesSkipped == 0 {
		t.Fatalf("emulated query skipped nothing: %+v", st)
	}
}

// TestSalvageIndexedVolume: the disaster path over an indexed volume —
// a shuffled bag with no bootstrap text — consumes the index emblems
// out-of-band, reports them in the ledger and still salvages bit-exact.
func TestSalvageIndexedVolume(t *testing.T) {
	arch, data := indexedArchive(t, false)
	order := make([]int, arch.Volume.Sheets())
	for s := range order {
		order[s] = (s + 1) % len(order) // rotated, so ordering is earned
	}
	bag := bagOf(t, arch.Volume, order...)
	got, rep, err := Salvage(bag, SalvageOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("indexed-volume salvage differs from input")
	}
	if !rep.Complete || rep.IndexFrames != arch.Volume.Sheets() {
		t.Fatalf("ledger %+v", rep)
	}
}

// TestEngineRangeMatchesOneShot: the engine's scratch-reusing range
// queries repeat byte-identically and match the one-shot entry point.
func TestEngineRangeMatchesOneShot(t *testing.T) {
	arch, data := indexedArchive(t, true)
	want, _, err := RestoreRange(arch.Volume, arch.BootstrapText, 128, 1024,
		RestoreOptions{Mode: RestoreNative, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, data[128:128+1024]) {
		t.Fatal("one-shot range differs from input slice")
	}
	eng := NewEngine(2)
	for trial := 0; trial < 3; trial++ {
		got, _, err := eng.RestoreRange(arch.Volume, arch.BootstrapText, 128, 1024, RestoreOptions{Mode: RestoreNative})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: engine range differs from one-shot", trial)
		}
	}
}
