package main

import (
	"fmt"
	"runtime"
	"time"

	"microlonys"
	"microlonys/internal/jobs"
)

// The traced run measures each layer from outside the program, in two
// parts: spans around the facade calls at workers 1 and at workers =
// GOMAXPROCS, and a serial replay of one operation through the layers'
// public functions (replay.go). Every workload prints every per-layer
// metric; a layer the workload's operation never calls reads 0.

// perLayer lists the per-layer metrics in BENCHMARK.json order.
var perLayer = []struct{ name, unit string }{
	{"dbcoder.compress_s", "s"},
	{"dbcoder.ratio", "count"},
	{"dbcoder.decompress_ms", "ms"},
	{"mocoder.encode_ms_per_frame", "ms"},
	{"mocoder.parity_ms_per_group", "ms"},
	{"mocoder.decode_ms_per_frame", "ms"},
	{"mocoder.decode_failed_ratio", "ratio"},
	{"mocoder.bytes_corrected_per_frame", "count"},
	{"mocoder.recover_ms_per_group", "ms"},
	{"mocoder.rectify_ms_per_frame", "ms"},
	{"media.scan_ms_per_frame", "ms"},
	{"media.write_ms_per_group", "ms"},
	{"dynarisc.modecode_ms_per_frame", "ms"},
	{"dynarisc.modecode_steps_per_frame", "count"},
	{"dynarisc.dbdecode_ms", "ms"},
	{"dynarisc.dbdecode_steps", "count"},
	{"dynarisc.Msteps_per_s", "1/s"},
	{"core.archive_s_w1", "s"},
	{"core.archive_s_wN", "s"},
	{"core.restore_s_w1", "s"},
	{"core.restore_s_wN", "s"},
	{"core.archive_speedup", "ratio"},
	{"core.restore_speedup", "ratio"},
	{"core.restore_residual_share", "share"},
	{"core.archive_residual_share", "share"},
	{"core.salvage_over_restore", "ratio"},
	{"core.frames_scanned_per_query", "count"},
	{"core.frames_touched_pct", "%"},
	{"core.groups_decoded_per_query", "count"},
	{"core.index_fallbacks", "count"},
	{"core.listindex_ms", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.handoff_ms_p50", "ms"},
	{"jobs.attempts_per_job", "count"},
	{"runtime.alloc_MB_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"share.archive.dbcoder_compress", "share"},
	{"share.archive.mocoder_parity", "share"},
	{"share.archive.mocoder_encode", "share"},
	{"share.archive.media_write", "share"},
	{"share.restore.media_scan", "share"},
	{"share.restore.mocoder_decode", "share"},
	{"share.restore.mocoder_rectify", "share"},
	{"share.restore.dynarisc_modecode", "share"},
	{"share.restore.mocoder_recover", "share"},
	{"share.restore.dbcoder_decompress", "share"},
	{"share.restore.dynarisc_dbdecode", "share"},
	{"facade.archive_MBps", "MB/s"},
	{"facade.restore_MBps", "MB/s"},
	{"facade.salvage_MBps", "MB/s"},
	{"facade.emulated_restore_MBps", "MB/s"},
	{"facade.query_p50_ms", "ms"},
	{"facade.query_p90_ms", "ms"},
	{"facade.query_per_s", "1/s"},
	{"trace.overhead_ms", "ms"},
}

// newTraceRun starts a traced run with every per-layer metric at 0.
func newTraceRun() *run {
	r := newRun()
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
	return r
}

// setLayer sets a per-layer metric, keeping its declared unit.
func (r *run) setLayer(name string, v float64) {
	m, ok := r.metrics[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m.Value = v
	r.metrics[name] = m
}

// replayRestoreLayers reports the replayed restore layers under root:
// per-call averages and, when restoreW1MS is known, each layer's share of
// the facade's serial restore time.
func (r *run) replayRestoreLayers(tr *tracer, root int, c replayCounts, restoreW1MS float64) {
	scan, nScan := tr.layer(spScan, root)
	dec, nDec := tr.layer(spDecode, root)
	rect, nRect := tr.layer(spRectify, root)
	mo, nMO := tr.layer(spMODecode, root)
	rec, nRec := tr.layer(spRecover, root)
	dcmp, _ := tr.layer(spDecompress, root)
	db, _ := tr.layer(spDBDecode, root)
	r.setLayer("media.scan_ms_per_frame", ratio(scan, float64(nScan)))
	r.setLayer("mocoder.decode_ms_per_frame", ratio(dec, float64(nDec)))
	r.setLayer("mocoder.decode_failed_ratio", ratio(float64(c.decodeFailed), float64(c.decodes)))
	r.setLayer("mocoder.bytes_corrected_per_frame", ratio(float64(c.bytesCorrected), float64(nDec)))
	r.setLayer("mocoder.recover_ms_per_group", ratio(rec, float64(nRec)))
	r.setLayer("mocoder.rectify_ms_per_frame", ratio(rect, float64(nRect)))
	r.setLayer("dbcoder.decompress_ms", dcmp)
	r.setLayer("dynarisc.modecode_ms_per_frame", ratio(mo, float64(nMO)))
	r.setLayer("dynarisc.modecode_steps_per_frame", ratio(float64(c.moSteps), float64(nMO)))
	r.setLayer("dynarisc.dbdecode_ms", db)
	r.setLayer("dynarisc.dbdecode_steps", float64(c.dbSteps))
	r.setLayer("dynarisc.Msteps_per_s", ratio(float64(c.moSteps+c.dbSteps)/1e6, (mo+db)/1000))
	if restoreW1MS > 0 {
		r.setLayer("share.restore.media_scan", scan/restoreW1MS)
		r.setLayer("share.restore.mocoder_decode", dec/restoreW1MS)
		r.setLayer("share.restore.mocoder_rectify", rect/restoreW1MS)
		r.setLayer("share.restore.dynarisc_modecode", mo/restoreW1MS)
		r.setLayer("share.restore.mocoder_recover", rec/restoreW1MS)
		r.setLayer("share.restore.dbcoder_decompress", dcmp/restoreW1MS)
		r.setLayer("share.restore.dynarisc_dbdecode", db/restoreW1MS)
	}
}

// residualShare is 1 − Σ replayed layer time / facade w1 time: the part
// of the serial facade call no replayed layer accounts for.
func residualShare(tr *tracer, root int, facadeW1MS float64) float64 {
	return 1 - (tr.get(root).ms()-tr.selfMS(root))/facadeW1MS
}

func traceBulk(seed int64, _ time.Duration) (*run, *tracer, error) {
	r := newTraceRun()
	warmUp()
	in, err := setupBulk(seed)
	if err != nil {
		return nil, nil, err
	}
	n := runtime.GOMAXPROCS(0)
	mb := float64(len(in.dump)) / 1e6

	md := startMem()
	ref, err := bulkRoundTrip(r, seed, in, n, nil)
	if err != nil {
		return r, nil, err
	}
	allocMB, gcs := md.stop()
	r.setLayer("runtime.alloc_MB_per_op", allocMB/3)
	r.setLayer("runtime.gc_cycles_per_op", gcs/3)

	tr := newTracer()
	w1, err := bulkRoundTrip(r, seed, in, 1, tr)
	if err != nil {
		return r, tr, err
	}
	wN, err := bulkRoundTrip(r, seed, in, n, tr)
	if err != nil {
		return r, tr, err
	}
	r.setLayer("trace.overhead_ms", ms(wN.archive+wN.restore+wN.salvage)-ms(ref.archive+ref.restore+ref.salvage))

	// Archive replay: the same bytes as the facade's volume, compared
	// after the round trip's damage plan is applied to both.
	root := tr.begin("replay/archive", 0)
	vol, err := replayArchive(tr, root, in.dump, bulkOptions(1))
	tr.end(root)
	if err == nil {
		var plan []frameRef
		if plan, err = damagePlan(seed, vol); err == nil {
			if err = applyDamage(vol, plan); err == nil {
				err = sameGroupFrames(wN.arch.Volume, vol)
			}
		}
	}
	if !r.check("archive replay", err) {
		return r, tr, fmt.Errorf("archive replay: %w", err)
	}
	compress, _ := tr.layer(spCompress, root)
	parity, nParity := tr.layer(spParity, root)
	encode, nEncode := tr.layer(spEncode, root)
	write, nWrite := tr.layer(spWriteGroup, root)
	archW1 := ms(w1.archive)
	r.setLayer("dbcoder.compress_s", compress/1000)
	r.setLayer("dbcoder.ratio", float64(w1.arch.Manifest.RawLen)/float64(w1.arch.Manifest.StreamLen))
	r.setLayer("mocoder.encode_ms_per_frame", ratio(encode, float64(nEncode)))
	r.setLayer("mocoder.parity_ms_per_group", ratio(parity, float64(nParity)))
	r.setLayer("media.write_ms_per_group", ratio(write, float64(nWrite)))
	r.setLayer("share.archive.dbcoder_compress", compress/archW1)
	r.setLayer("share.archive.mocoder_parity", parity/archW1)
	r.setLayer("share.archive.mocoder_encode", encode/archW1)
	r.setLayer("share.archive.media_write", write/archW1)
	r.setLayer("core.archive_residual_share", residualShare(tr, root, archW1))

	// Restore replay over the damaged wN volume.
	root = tr.begin("replay/restore", 0)
	out, counts, err := replayRestore(tr, root, wN.arch.Volume, false)
	tr.end(root)
	if err == nil {
		err = equalOrMismatch(out, in.dump)
	}
	if !r.check("restore replay", err) {
		return r, tr, fmt.Errorf("restore replay: %w", err)
	}
	r.replayRestoreLayers(tr, root, counts, ms(w1.restore))
	r.setLayer("core.restore_residual_share", residualShare(tr, root, ms(w1.restore)))

	r.setLayer("core.archive_s_w1", w1.archive.Seconds())
	r.setLayer("core.archive_s_wN", wN.archive.Seconds())
	r.setLayer("core.restore_s_w1", w1.restore.Seconds())
	r.setLayer("core.restore_s_wN", wN.restore.Seconds())
	r.setLayer("core.archive_speedup", w1.archive.Seconds()/wN.archive.Seconds())
	r.setLayer("core.restore_speedup", w1.restore.Seconds()/wN.restore.Seconds())
	r.setLayer("core.salvage_over_restore", wN.salvage.Seconds()/wN.restore.Seconds())
	r.setLayer("facade.archive_MBps", mb/wN.archive.Seconds())
	r.setLayer("facade.restore_MBps", mb/wN.restore.Seconds())
	r.setLayer("facade.salvage_MBps", mb/wN.salvage.Seconds())
	r.detail["salvage_s"] = map[string]float64{"w1": w1.salvage.Seconds(), "wN": wN.salvage.Seconds()}
	r.detail["frames"] = wN.arch.Manifest.TotalFrames
	r.detail["sheets"] = wN.arch.Manifest.Sheets
	return r, tr, nil
}

func traceEmulated(seed int64, _ time.Duration) (*run, *tracer, error) {
	r := newTraceRun()
	warmUp()
	in, err := setupEmulated(seed)
	if err != nil {
		return nil, nil, err
	}
	n := runtime.GOMAXPROCS(0)
	md := startMem()
	ref := emulatedRestore(r, in, n, nil)
	allocMB, gcs := md.stop()
	r.setLayer("runtime.alloc_MB_per_op", allocMB)
	r.setLayer("runtime.gc_cycles_per_op", gcs)

	tr := newTracer()
	w1 := emulatedRestore(r, in, 1, tr)
	wN := emulatedRestore(r, in, n, tr)
	r.setLayer("trace.overhead_ms", ms(wN)-ms(ref))

	root := tr.begin("replay/emulated-restore", 0)
	out, counts, err := replayRestore(tr, root, in.arch.Volume, true)
	tr.end(root)
	if err == nil {
		err = equalOrMismatch(out, in.dump)
	}
	if !r.check("emulated restore replay", err) {
		return r, tr, fmt.Errorf("emulated restore replay: %w", err)
	}
	r.replayRestoreLayers(tr, root, counts, ms(w1))
	r.setLayer("core.restore_residual_share", residualShare(tr, root, ms(w1)))
	r.setLayer("core.restore_s_w1", w1.Seconds())
	r.setLayer("core.restore_s_wN", wN.Seconds())
	r.setLayer("core.restore_speedup", w1.Seconds()/wN.Seconds())
	r.setLayer("facade.emulated_restore_MBps", float64(len(in.dump))/1e6/wN.Seconds())
	r.detail["frames"] = in.arch.Manifest.TotalFrames
	return r, tr, nil
}

func traceQuery(seed int64, dur time.Duration) (*run, *tracer, error) {
	r := newTraceRun()
	warmUp()
	in, err := setupQuery(seed, queryDumpBytes)
	if err != nil {
		return nil, nil, err
	}
	n := runtime.GOMAXPROCS(0)
	vol, text := in.arch.Volume, in.arch.BootstrapText
	var rq, tq query
	for _, q := range in.queries {
		if q.Kind == jobs.KindRange && rq.Kind == "" {
			rq = q
		}
		if q.Kind == jobs.KindTable && tq.Kind == "" {
			tq = q
		}
	}

	// Direct facade calls at workers 1 and N; the first range call also
	// runs untraced, for the tracing overhead.
	t0 := time.Now()
	_, _, err = microlonys.RestoreRange(vol, text, rq.Off, rq.Length, microlonys.RestoreOptions{Workers: 1})
	untraced := time.Since(t0)
	if !r.check("range", err) {
		return r, nil, err
	}
	tr := newTracer()
	var rangeOut []byte
	var rangeW1 float64
	for _, w := range []int{1, n} {
		opts := microlonys.RestoreOptions{Workers: w}
		var got []byte
		t0 = time.Now()
		id := tr.begin(fmt.Sprintf("microlonys.RestoreRange/w%d", w), 0)
		got, _, err = microlonys.RestoreRange(vol, text, rq.Off, rq.Length, opts)
		d := tr.end(id)
		if w == 1 {
			r.setLayer("trace.overhead_ms", ms(time.Since(t0))-ms(untraced))
			rangeOut, rangeW1 = got, d
		}
		if err == nil {
			err = in.verify(rq, jobs.Result{Data: got})
		}
		r.check("range", err)

		id = tr.begin(fmt.Sprintf("microlonys.RestoreTable/w%d", w), 0)
		got, _, err = microlonys.RestoreTable(vol, text, tq.Table, opts)
		tr.end(id)
		if err == nil {
			err = in.verify(tq, jobs.Result{Data: got})
		}
		r.check("table", err)

		id = tr.begin(fmt.Sprintf("microlonys.ListIndex/w%d", w), 0)
		idx, _, err := microlonys.ListIndex(vol, text, opts)
		d = tr.end(id)
		if w == 1 {
			r.setLayer("core.listindex_ms", d)
		}
		if err == nil {
			err = in.verify(query{Kind: jobs.KindListIndex}, jobs.Result{Index: idx})
		}
		r.check("listindex", err)
	}

	// The closed loop through jobs.Manager, traced.
	md := startMem()
	samples, wall, err := closedLoop(r, in, dur, minQueries, nil, tr)
	if err != nil {
		return r, tr, err
	}
	allocMB, gcs := md.stop()
	r.setLayer("runtime.alloc_MB_per_op", allocMB/float64(len(samples)))
	r.setLayer("runtime.gc_cycles_per_op", gcs/float64(len(samples)))
	var lat, wait, runMS, handoff, attempts, scanned, touched, groups []float64
	fallbacks := 0
	for _, s := range samples {
		lat = append(lat, ms(s.client))
		wait = append(wait, ms(s.snap.StartedAt.Sub(s.snap.SubmittedAt)))
		runMS = append(runMS, ms(s.snap.FinishedAt.Sub(s.snap.StartedAt)))
		handoff = append(handoff, ms(s.client-s.snap.FinishedAt.Sub(s.snap.SubmittedAt)))
		attempts = append(attempts, float64(s.snap.Attempts))
		if s.stats != nil && s.q.Kind != jobs.KindListIndex {
			scanned = append(scanned, float64(s.stats.FramesScanned))
			touched = append(touched, 100*float64(s.stats.FramesScanned)/float64(vol.FrameCount()))
			groups = append(groups, float64(s.stats.GroupsDecoded))
			fallbacks += s.stats.IndexFallbacks
		}
	}
	r.setLayer("jobs.queue_wait_ms_p50", median(wait))
	r.setLayer("jobs.run_ms_p50", median(runMS))
	r.setLayer("jobs.handoff_ms_p50", median(handoff))
	r.setLayer("jobs.attempts_per_job", mean(attempts))
	r.setLayer("core.frames_scanned_per_query", mean(scanned))
	r.setLayer("core.frames_touched_pct", mean(touched))
	r.setLayer("core.groups_decoded_per_query", mean(groups))
	r.setLayer("core.index_fallbacks", float64(fallbacks))
	r.setLayer("facade.query_p50_ms", median(lat))
	r.setLayer("facade.query_p90_ms", percentile(lat, 90))
	r.setLayer("facade.query_per_s", float64(len(lat))/wall.Seconds())

	// One range query replayed through the layers.
	root := tr.begin("replay/range", 0)
	out, counts, err := replayRange(tr, root, vol, rq.Off, rq.Length)
	tr.end(root)
	if err == nil {
		err = equalOrMismatch(out, rangeOut)
	}
	if !r.check("range replay", err) {
		return r, tr, fmt.Errorf("range replay: %w", err)
	}
	r.replayRestoreLayers(tr, root, counts, 0)
	r.detail["range_replay_residual_share"] = residualShare(tr, root, rangeW1)
	r.detail["queries"] = len(samples)
	return r, tr, nil
}
