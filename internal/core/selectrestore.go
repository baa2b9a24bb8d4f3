package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"

	"microlonys/dynarisc"
	"microlonys/internal/archindex"
	"microlonys/internal/bootstrap"
	"microlonys/internal/catalog"
	"microlonys/internal/dbcoder"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/sqldump"
	"microlonys/media"
)

// Selective restore: indexed range and table queries that decode only the
// groups a query touches.
//
//	probe:    read one sheet's reserved index emblem (internal/archindex) —
//	          the logical→physical map every sheet carries
//	plan:     replay the planner's group-cutting and the volume's
//	          sheet-cutting arithmetic from the index's integers, deriving
//	          every group's (sheet, frame, stream-offset) extent; map the
//	          requested raw range onto the archived stream (directly for
//	          raw archives, through the DBS1 restart-block table for
//	          compressed ones)
//	decode:   scan and decode only the overlapping groups' frames — whole
//	          sheets outside the query never see a ScanFrameInto call —
//	          then assemble each group with the same outer-code arithmetic
//	          a full restore uses
//	finish:   decompress only the overlapping restart blocks and trim to
//	          the exact byte range
//
// The result is byte-identical to the corresponding slice of a full
// restore, at any worker count. Every path that cannot proceed — no index
// slot, unreadable or corrupt index frames, an index contradicting the
// volume in hand — falls back to a full restore (counted in
// RestoreStats.IndexFallbacks), so a selective query never fails where a
// full restore would succeed.

// errIndexGeometry reports an index whose derived geometry contradicts
// the volume in hand (damaged, stale or forged): the caller falls back to
// the full scan path.
var errIndexGeometry = errors.New("core: index geometry contradicts the volume")

// RestoreRange restores exactly bytes [off, off+length) of the original
// archive from an indexed volume, scanning only the frames the range
// touches. The bytes are identical to the same slice of a full Restore.
// Volumes without a usable index fall back to a full restore.
func RestoreRange(v *media.Volume, bootstrapText string, off, length int, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return restoreRange(v, bootstrapText, off, length, ro, make([]scanScratch, resolveWorkers(ro.Workers, v.FrameCount())))
}

// RestoreRange is core.RestoreRange through the engine's reused scratch.
func (e *Engine) RestoreRange(v *media.Volume, bootstrapText string, off, length int, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	ro.Workers = e.workers
	return restoreRange(v, bootstrapText, off, length, ro, e.scratch)
}

// RestoreSection restores one named section of the archive — a SQL-dump
// table ("nation") or column ("nation.n_name") — resolving the name
// through the index's section table. A column restores its minimal
// contiguous cover: the owning table's whole rows region. Names the index
// cannot resolve fall back to a full restore and are located there.
func RestoreSection(v *media.Volume, bootstrapText, name string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return restoreSection(v, bootstrapText, name, ro, make([]scanScratch, resolveWorkers(ro.Workers, v.FrameCount())))
}

// RestoreSection is core.RestoreSection through the engine's reused scratch.
func (e *Engine) RestoreSection(v *media.Volume, bootstrapText, name string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	ro.Workers = e.workers
	return restoreSection(v, bootstrapText, name, ro, e.scratch)
}

// RestoreTable restores one SQL-dump table's rows region by name. It is
// RestoreSection under the table-name convention.
func RestoreTable(v *media.Volume, bootstrapText, table string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return RestoreSection(v, bootstrapText, table, ro)
}

// RestoreTable is core.RestoreTable through the engine's reused scratch.
func (e *Engine) RestoreTable(v *media.Volume, bootstrapText, table string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return e.RestoreSection(v, bootstrapText, table, ro)
}

// ListIndex reads the volume's selective-restore index — archive
// identity, geometry, restart blocks, named sections — without decoding
// any payload group. There is no full-restore fallback: a volume with no
// readable index reports ErrRestore.
func ListIndex(v *media.Volume, bootstrapText string, ro RestoreOptions) (*archindex.Index, *RestoreStats, error) {
	return listIndex(v, bootstrapText, ro, make([]scanScratch, 1))
}

// ListIndex is core.ListIndex through the engine's reused scratch.
func (e *Engine) ListIndex(v *media.Volume, bootstrapText string, ro RestoreOptions) (*archindex.Index, *RestoreStats, error) {
	ro.Workers = e.workers
	return listIndex(v, bootstrapText, ro, e.scratch)
}

func restoreRange(v *media.Volume, bootstrapText string, off, length int, ro RestoreOptions, scratch []scanScratch) ([]byte, *RestoreStats, error) {
	doc, err := bootstrap.Parse(bootstrapText)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	if off < 0 || length < 0 {
		return nil, nil, fmt.Errorf("%w: negative range %d:%d", ErrRestore, off, length)
	}
	st := newSelectStats(v, ro)
	ctx := orBackground(ro.Context)
	x, err := readIndex(ctx, v, doc, ro, scratch, st)
	if err != nil {
		return nil, st, err
	}
	if x != nil {
		if off+length > x.RawLen {
			return nil, st, fmt.Errorf("%w: range %d:%d beyond archive of %d bytes", ErrRestore, off, length, x.RawLen)
		}
		out, err := selectiveRange(ctx, v, doc, x, off, length, ro, scratch, st)
		if err == nil {
			return out, st, nil
		}
		if !errors.Is(err, errIndexGeometry) {
			return nil, st, err
		}
	}
	return rangeFallback(v, bootstrapText, off, length, ro, scratch)
}

func restoreSection(v *media.Volume, bootstrapText, name string, ro RestoreOptions, scratch []scanScratch) ([]byte, *RestoreStats, error) {
	doc, err := bootstrap.Parse(bootstrapText)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	st := newSelectStats(v, ro)
	ctx := orBackground(ro.Context)
	x, err := readIndex(ctx, v, doc, ro, scratch, st)
	if err != nil {
		return nil, st, err
	}
	if x != nil {
		if sec, ok := x.Lookup(name); ok {
			out, err := selectiveRange(ctx, v, doc, x, sec.Off, sec.Len, ro, scratch, st)
			if err == nil {
				return out, st, nil
			}
			if !errors.Is(err, errIndexGeometry) {
				return nil, st, err
			}
		}
		// A trimmed section table, an unknown name or a geometry
		// contradiction: the full restore resolves all three (and is the
		// arbiter of whether the name exists at all).
	}
	return sectionFallback(v, bootstrapText, name, ro, scratch)
}

func listIndex(v *media.Volume, bootstrapText string, ro RestoreOptions, scratch []scanScratch) (*archindex.Index, *RestoreStats, error) {
	doc, err := bootstrap.Parse(bootstrapText)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	st := newSelectStats(v, ro)
	x, err := readIndex(orBackground(ro.Context), v, doc, ro, scratch, st)
	if err != nil {
		return nil, st, err
	}
	if x == nil {
		return nil, st, fmt.Errorf("%w: no readable selective-restore index", ErrRestore)
	}
	st.FramesSkipped = v.FrameCount() - st.FramesScanned
	return x, st, nil
}

func newSelectStats(v *media.Volume, ro RestoreOptions) *RestoreStats {
	return &RestoreStats{Mode: ro.Mode, Sheets: make([]SheetReport, v.Sheets())}
}

// readIndex probes the volume's reserved index slots sheet by sheet until
// one parses, decoding through the mode-faithful path (emulated modes run
// the archived MODecode program on the index frame too). When every index
// slot is unreadable it tries the catalog's compressed index replica.
// Returns nil — with RestoreStats.IndexFallbacks counted — when no usable
// index exists; the caller falls back to a full restore. The only error is
// cancellation: each sheet probe checks ctx so a query on a large damaged
// volume aborts between frame scans, wrapping ErrRestore and the context's
// error.
func readIndex(ctx context.Context, v *media.Volume, doc *bootstrap.Document, ro RestoreOptions, scratch []scanScratch, st *RestoreStats) (*archindex.Index, error) {
	if !doc.Index {
		st.IndexFallbacks++
		return nil, nil
	}
	var moProg *dynarisc.Program
	if ro.Mode != RestoreNative {
		var err error
		if moProg, err = doc.MODecodeProgram(); err != nil {
			st.IndexFallbacks++
			return nil, nil
		}
	}
	sc := &scratch[0]
	slot := boolInt(doc.Catalog) // the index slot follows the catalog slot
	for s := 0; s < v.Sheets(); s++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRestore, err)
		}
		m, err := v.Sheet(s)
		if err != nil || m.FrameCount() <= slot {
			continue
		}
		start, err := v.SheetStart(s)
		if err != nil {
			continue
		}
		payload, hdr, ok := probeFrame(v, start+slot, s, ro.Mode, moProg, doc.Layout, sc, st)
		if !ok || hdr.Kind != emblem.KindIndex {
			continue
		}
		if x, err := archindex.Parse(payload); err == nil {
			st.IndexFrames++
			return x, nil
		}
	}
	if doc.Catalog {
		for s := 0; s < v.Sheets(); s++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrRestore, err)
			}
			m, err := v.Sheet(s)
			if err != nil || m.FrameCount() == 0 {
				continue
			}
			start, err := v.SheetStart(s)
			if err != nil {
				continue
			}
			payload, hdr, ok := probeFrame(v, start, s, ro.Mode, moProg, doc.Layout, sc, st)
			if !ok || hdr.Kind != emblem.KindCatalog {
				continue
			}
			c, err := catalog.Parse(payload)
			if err != nil || len(c.IndexReplica) == 0 {
				continue
			}
			if x, err := archindex.Parse(c.IndexReplica); err == nil {
				st.CatalogFrames++
				return x, nil
			}
		}
	}
	st.IndexFallbacks++
	return nil, nil
}

// probeFrame scans and decodes one frame serially, tallying it like the
// full pipeline would.
func probeFrame(v *media.Volume, i, sheet int, mode Mode, moProg *dynarisc.Program, layout emblem.Layout, sc *scanScratch, st *RestoreStats) ([]byte, emblem.Header, bool) {
	scan, err := v.ScanFrameInto(&sc.scan, i)
	if err != nil {
		return nil, emblem.Header{}, false
	}
	st.FramesScanned++
	if sheet < len(st.Sheets) {
		st.Sheets[sheet].Frames++
	}
	var payload []byte
	var hdr emblem.Header
	switch mode {
	case RestoreNative:
		payload, hdr, _, err = mocoder.DecodeWith(&sc.dec, scan, layout)
	default:
		payload, hdr, err = decodeFrameEmulated(sc, moProg, scan, layout, mode)
	}
	if err != nil {
		st.FramesFailed++
		if sheet < len(st.Sheets) {
			st.Sheets[sheet].FramesFailed++
		}
		return nil, emblem.Header{}, false
	}
	return payload, hdr, true
}

// groupExtent is one outer-code group's derived physical placement: its
// id and shape, the stream extent it carries, the sheet it landed on and
// the global scan-space index of its first frame.
type groupExtent struct {
	id             int
	kind           emblem.Kind
	data, parity   int
	secOff, secLen int // byte extent within the group's section stream
	sheet          int
	scanStart      int // global frame index of the group's first frame
}

// planGeometry replays the planner's group-cutting and the volume's
// sheet-cutting arithmetic from the index's dozen integers, re-deriving
// every group's physical extent — the index stores parameters, not
// tables. The derived frame and sheet totals are checked against the
// volume in hand; a contradiction (a damaged or stale index) reports
// errIndexGeometry so the caller falls back to a full restore.
func planGeometry(x *archindex.Index, capacity int, v *media.Volume) ([]groupExtent, error) {
	if capacity <= 0 || x.GroupData <= 0 {
		return nil, errIndexGeometry
	}
	reserved := 1 + boolInt(x.CatalogSlot) // the index slot plus the optional catalog slot
	bounded := x.SheetFrames > 0
	usable := x.SheetFrames - reserved
	if bounded && usable <= 0 {
		return nil, errIndexGeometry
	}
	type sec struct {
		kind  emblem.Kind
		total int
	}
	var secs []sec
	if x.Compress {
		secs = []sec{{emblem.KindData, x.StreamLen}, {emblem.KindSystem, x.SystemLen}}
	} else {
		secs = []sec{{emblem.KindRaw, x.RawLen}}
	}

	var out []groupExtent
	gid := 0
	sheet, fill := 0, 0 // open sheet and its placed (non-reserved) frames
	sheetStartScan := 0 // global scan index of the open sheet's frame 0
	for _, s := range secs {
		totalChunks := (s.total + capacity - 1) / capacity
		if totalChunks == 0 {
			totalChunks = 1
		}
		for chunk := 0; chunk < totalChunks; {
			g := x.GroupData
			if g > totalChunks-chunk {
				g = totalChunks - chunk
			}
			size := g + x.GroupParity
			if bounded {
				if size > usable {
					return nil, errIndexGeometry
				}
				if fill+size > usable {
					sheetStartScan += reserved + fill
					sheet++
					fill = 0
				}
			}
			secOff := chunk * capacity
			secEnd := (chunk + g) * capacity
			if secEnd > s.total {
				secEnd = s.total
			}
			out = append(out, groupExtent{
				id: gid, kind: s.kind, data: g, parity: x.GroupParity,
				secOff: secOff, secLen: secEnd - secOff,
				sheet: sheet, scanStart: sheetStartScan + reserved + fill,
			})
			fill += size
			gid++
			chunk += g
		}
	}
	if sheetStartScan+reserved+fill != v.FrameCount() || sheet+1 != v.Sheets() {
		return nil, errIndexGeometry
	}
	return out, nil
}

// selectiveRange restores raw bytes [off, off+length) through the index:
// computes the minimal closed set of groups, scans and decodes only their
// frames, assembles them with the full restore's outer-code arithmetic
// and decompresses only the overlapping restart blocks.
func selectiveRange(ctx context.Context, v *media.Volume, doc *bootstrap.Document, x *archindex.Index, off, length int, ro RestoreOptions, scratch []scanScratch, st *RestoreStats) ([]byte, error) {
	capacity := mocoder.Capacity(doc.Layout)
	geo, err := planGeometry(x, capacity, v)
	if err != nil {
		return nil, err
	}
	if length == 0 {
		st.FramesSkipped = v.FrameCount() - st.FramesScanned
		return []byte{}, nil
	}

	// Map the raw range onto the archived stream: raw archives read their
	// bytes directly; compressed archives read the DBS1 restart blocks the
	// range overlaps — or, with the block table trimmed from the index,
	// the whole stream (still skipping nothing but, under native mode, the
	// system groups).
	kind := emblem.KindRaw
	spanOff, spanLen := off, length
	var blocks []dbcoder.SeekBlock
	if x.Compress {
		kind = emblem.KindData
		if len(x.Blocks) > 0 {
			lo := 0
			for lo < len(x.Blocks) && x.Blocks[lo].RawOff+x.Blocks[lo].RawLen <= off {
				lo++
			}
			hi := lo
			for hi < len(x.Blocks) && x.Blocks[hi].RawOff < off+length {
				hi++
			}
			if lo >= hi {
				return nil, errIndexGeometry
			}
			blocks = x.Blocks[lo:hi]
			last := blocks[len(blocks)-1]
			spanOff = blocks[0].CompOff
			spanLen = last.CompOff + last.CompLen - spanOff
		} else {
			spanOff, spanLen = 0, x.StreamLen
		}
	}

	// The minimal closed set of groups: target-kind groups overlapping the
	// stream span, plus — under emulation — every system group (the
	// archived DBDecode program must be whole to run at all).
	var sel []groupExtent
	for _, g := range geo {
		switch {
		case g.kind == kind && g.secOff < spanOff+spanLen && spanOff < g.secOff+g.secLen:
			sel = append(sel, g)
		case g.kind == emblem.KindSystem && ro.Mode != RestoreNative:
			sel = append(sel, g)
		}
	}

	var moProg *dynarisc.Program
	if ro.Mode != RestoreNative {
		if moProg, err = doc.MODecodeProgram(); err != nil {
			return nil, fmt.Errorf("%w: bootstrap MODecode: %w", ErrRestore, err)
		}
	}

	// Scan and decode only the selected groups' frames; every other frame
	// of the volume is skipped without a single ScanFrameInto call.
	var frameIdx []int
	for _, g := range sel {
		for f := 0; f < g.data+g.parity; f++ {
			frameIdx = append(frameIdx, g.scanStart+f)
		}
	}
	results := make([]frameResult, len(frameIdx))
	decErr := forEachFrame(ctx, ro.Workers, len(frameIdx), func(_ context.Context, worker, i int) error {
		sc := &scratch[worker]
		scan, err := v.ScanFrameInto(&sc.scan, frameIdx[i])
		if err != nil {
			return fmt.Errorf("%w: scanning frame %d: %w", ErrRestore, frameIdx[i], err)
		}
		res := &results[i]
		res.scanned = true
		switch ro.Mode {
		case RestoreNative:
			var stats *mocoder.Stats
			res.payload, res.hdr, stats, err = mocoder.DecodeWith(&sc.dec, scan, doc.Layout)
			if stats != nil {
				res.corrected = stats.BytesCorrected
			}
		default:
			res.payload, res.hdr, err = decodeFrameEmulated(sc, moProg, scan, doc.Layout, ro.Mode)
		}
		res.decoded = err == nil
		return nil
	})
	if decErr != nil {
		if errors.Is(decErr, ErrRestore) {
			return nil, decErr
		}
		return nil, fmt.Errorf("%w: %w", ErrRestore, decErr)
	}

	// Serial per-group assembly in group order, mirroring the full
	// restore's outer-code arithmetic so the recovered bytes are
	// byte-identical to the corresponding slice of a full restore — lost
	// groups included (Partial mode zero-fills exactly the group's stream
	// extent, which is what the full restore's trimmed sink writes).
	var spanBuf, sysBuf bytes.Buffer
	base := 0
	for _, g := range sel {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRestore, err)
		}
		size := g.data + g.parity
		full := make([][]byte, size)
		members := 0
		var sh *SheetReport
		if g.sheet < len(st.Sheets) {
			sh = &st.Sheets[g.sheet]
		} else {
			sh = &SheetReport{}
		}
		for p := 0; p < size; p++ {
			res := &results[base+p]
			if res.scanned {
				st.FramesScanned++
				sh.Frames++
			}
			if res.decoded && int(res.hdr.GroupID) == g.id && int(res.hdr.GroupPos) == p {
				padded := make([]byte, capacity)
				copy(padded, res.payload)
				full[p] = padded
				members++
				st.BytesCorrected += res.corrected
			} else {
				st.FramesFailed++
				sh.FramesFailed++
			}
		}
		base += size

		st.GroupsDecoded++
		sh.Groups++
		missing := size - members
		rep := GroupReport{ID: g.id, Sheet: g.sheet, Kind: g.kind.String(), Frames: size, Missing: missing}
		lost := false
		if missing > 0 {
			if err := mocoder.RecoverGroup(full); err != nil {
				if !ro.Partial {
					return nil, fmt.Errorf("%w: group %d: %w", ErrRestore, g.id, err)
				}
				lost = true
				rep.Lost = true
				st.GroupsLost++
				sh.GroupsLost++
			} else {
				rep.Recovered = true
				st.GroupsRecovered++
				sh.GroupsRecovered++
			}
		}
		st.Groups = append(st.Groups, rep)

		sink := &spanBuf
		if g.kind == emblem.KindSystem {
			sink = &sysBuf
		}
		if lost {
			sink.Write(make([]byte, g.secLen))
			st.BytesLost += g.secLen
			continue
		}
		written := 0
		for p := 0; p < g.data && written < g.secLen; p++ {
			n := g.secLen - written
			if n > capacity {
				n = capacity
			}
			sink.Write(full[p][:n])
			written += n
		}
	}

	// Trim the assembled target-kind bytes to the exact stream span: the
	// selected groups cover it contiguously starting at the first group's
	// extent.
	firstOff := -1
	for _, g := range sel {
		if g.kind == kind {
			firstOff = g.secOff
			break
		}
	}
	span := spanBuf.Bytes()
	if firstOff < 0 || firstOff > spanOff || firstOff+len(span) < spanOff+spanLen {
		return nil, errIndexGeometry
	}
	stream := span[spanOff-firstOff : spanOff-firstOff+spanLen]

	if !x.Compress {
		st.FramesSkipped = v.FrameCount() - st.FramesScanned
		return append([]byte(nil), stream...), nil
	}

	// Decompress only the overlapping restart blocks, each independently
	// decodable — natively or through the archived DBDecode program
	// reassembled from the system groups.
	var dbProg *dynarisc.Program
	if ro.Mode != RestoreNative {
		if dbProg, err = bootstrap.UnmarshalDynaRisc(sysBuf.Bytes()); err != nil {
			return nil, fmt.Errorf("%w: system emblem payload: %w", ErrRestore, err)
		}
	}
	decode := func(blob []byte) ([]byte, error) {
		if ro.Mode == RestoreNative {
			raw, err := dbcoder.Decompress(blob)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrRestore, err)
			}
			return raw, nil
		}
		return emulatedDecompress(dbProg, blob, ro.Mode)
	}
	var out []byte
	if len(blocks) == 0 {
		raw, err := decode(stream)
		if err != nil {
			return nil, err
		}
		if off+length > len(raw) {
			return nil, errIndexGeometry
		}
		out = append([]byte(nil), raw[off:off+length]...)
	} else {
		out = make([]byte, 0, length)
		for _, b := range blocks {
			raw, err := decode(stream[b.CompOff-spanOff : b.CompOff-spanOff+b.CompLen])
			if err != nil {
				return nil, err
			}
			if len(raw) != b.RawLen {
				return nil, errIndexGeometry
			}
			lo, hi := 0, b.RawLen
			if off > b.RawOff {
				lo = off - b.RawOff
			}
			if off+length < b.RawOff+b.RawLen {
				hi = off + length - b.RawOff
			}
			out = append(out, raw[lo:hi]...)
		}
	}
	st.FramesSkipped = v.FrameCount() - st.FramesScanned
	return out, nil
}

// rangeFallback answers a range query with a full restore and a slice —
// the path taken when no usable index is readable.
func rangeFallback(v *media.Volume, bootstrapText string, off, length int, ro RestoreOptions, scratch []scanScratch) ([]byte, *RestoreStats, error) {
	var buf bytes.Buffer
	st, err := restoreToWriter(&buf, v, bootstrapText, ro, scratch)
	if st == nil {
		st = &RestoreStats{Mode: ro.Mode}
	}
	st.IndexFallbacks++
	if err != nil {
		return nil, st, err
	}
	data := buf.Bytes()
	if off+length > len(data) {
		return nil, st, fmt.Errorf("%w: range %d:%d beyond archive of %d bytes", ErrRestore, off, length, len(data))
	}
	return append([]byte(nil), data[off:off+length]...), st, nil
}

// sectionFallback answers a table/column query with a full restore,
// locating the name by parsing the restored SQL dump.
func sectionFallback(v *media.Volume, bootstrapText, name string, ro RestoreOptions, scratch []scanScratch) ([]byte, *RestoreStats, error) {
	var buf bytes.Buffer
	st, err := restoreToWriter(&buf, v, bootstrapText, ro, scratch)
	if st == nil {
		st = &RestoreStats{Mode: ro.Mode}
	}
	st.IndexFallbacks++
	if err != nil {
		return nil, st, err
	}
	data := buf.Bytes()
	secs, serr := sqldump.Sections(data)
	if serr != nil {
		return nil, st, fmt.Errorf("%w: locating %q: %w", ErrRestore, name, serr)
	}
	table, column := name, ""
	if i := strings.IndexByte(name, '.'); i > 0 {
		table, column = name[:i], name[i+1:]
	}
	for _, s := range secs {
		if s.Table == name {
			return append([]byte(nil), data[s.Off:s.Off+s.Len]...), st, nil
		}
		if column == "" || s.Table != table {
			continue
		}
		for _, c := range s.Columns {
			if c == column {
				return append([]byte(nil), data[s.Off:s.Off+s.Len]...), st, nil
			}
		}
	}
	return nil, st, fmt.Errorf("%w: no table or column %q in the archive", ErrRestore, name)
}
