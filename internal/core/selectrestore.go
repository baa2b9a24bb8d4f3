package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

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
//	decode:   scan and decode only the overlapping groups' frames through
//	          the restore's one decode stage — whole sheets outside the
//	          query never see a ScanFrameInto call — closing each group
//	          through the full restore's group-close step
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
	return NewEngine(ro.Workers).RestoreRange(v, bootstrapText, off, length, ro)
}

// RestoreSection restores one named section of the archive — a SQL-dump
// table ("nation") or column ("nation.n_name") — resolving the name
// through the index's section table. A column restores its minimal
// contiguous cover: the owning table's whole rows region. Names the index
// cannot resolve fall back to a full restore and are located there.
func RestoreSection(v *media.Volume, bootstrapText, name string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return NewEngine(ro.Workers).RestoreSection(v, bootstrapText, name, ro)
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
	return NewEngine(ro.Workers).ListIndex(v, bootstrapText, ro)
}

// RestoreRange is core.RestoreRange through the engine's reused scratch.
func (e *Engine) RestoreRange(v *media.Volume, bootstrapText string, off, length int, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	if off < 0 || length < 0 {
		return nil, nil, fmt.Errorf("%w: negative range %d:%d", ErrRestore, off, length)
	}
	doc, x, st, err := e.readIndex(v, bootstrapText, ro)
	if err != nil {
		return nil, st, err
	}
	if x != nil {
		if off+length > x.RawLen {
			return nil, st, fmt.Errorf("%w: range %d:%d beyond archive of %d bytes", ErrRestore, off, length, x.RawLen)
		}
		out, err := e.selectiveRange(v, doc, x, off, length, ro, st)
		if !errors.Is(err, errIndexGeometry) {
			return out, st, err
		}
	}
	return e.fallback(v, bootstrapText, ro, func(data []byte) ([]byte, error) {
		if off+length > len(data) {
			return nil, fmt.Errorf("%w: range %d:%d beyond archive of %d bytes", ErrRestore, off, length, len(data))
		}
		return data[off : off+length], nil
	})
}

// RestoreSection is core.RestoreSection through the engine's reused scratch.
func (e *Engine) RestoreSection(v *media.Volume, bootstrapText, name string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	doc, x, st, err := e.readIndex(v, bootstrapText, ro)
	if err != nil {
		return nil, st, err
	}
	if x != nil {
		if sec, ok := x.Lookup(name); ok {
			out, err := e.selectiveRange(v, doc, x, sec.Off, sec.Len, ro, st)
			if !errors.Is(err, errIndexGeometry) {
				return out, st, err
			}
		}
		// A trimmed section table, an unknown name or a geometry
		// contradiction: the full restore resolves all three (and is the
		// arbiter of whether the name exists at all).
	}
	return e.fallback(v, bootstrapText, ro, func(data []byte) ([]byte, error) {
		secs, err := sqldump.Sections(data)
		if err != nil {
			return nil, fmt.Errorf("%w: locating %q: %w", ErrRestore, name, err)
		}
		table, column, dotted := strings.Cut(name, ".")
		for _, s := range secs {
			if s.Table == name || (dotted && s.Table == table && slices.Contains(s.Columns, column)) {
				return data[s.Off : s.Off+s.Len], nil
			}
		}
		return nil, fmt.Errorf("%w: no table or column %q in the archive", ErrRestore, name)
	})
}

// ListIndex is core.ListIndex through the engine's reused scratch.
func (e *Engine) ListIndex(v *media.Volume, bootstrapText string, ro RestoreOptions) (*archindex.Index, *RestoreStats, error) {
	_, x, st, err := e.readIndex(v, bootstrapText, ro)
	if err != nil {
		return nil, st, err
	}
	if x == nil {
		return nil, st, fmt.Errorf("%w: no readable selective-restore index", ErrRestore)
	}
	st.FramesSkipped = v.FrameCount() - st.FramesScanned
	return x, st, nil
}

// fallback answers a query the index cannot with a full restore: pick
// selects the answer from the restored archive bytes.
func (e *Engine) fallback(v *media.Volume, bootstrapText string, ro RestoreOptions, pick func(data []byte) ([]byte, error)) ([]byte, *RestoreStats, error) {
	var buf bytes.Buffer
	st, err := e.RestoreToWriter(&buf, v, bootstrapText, ro)
	if st == nil {
		st = &RestoreStats{Mode: ro.Mode}
	}
	st.IndexFallbacks++
	if err != nil {
		return nil, st, err
	}
	out, err := pick(buf.Bytes())
	if err != nil {
		return nil, st, err
	}
	return append([]byte(nil), out...), st, nil
}

// readIndex parses the Bootstrap and probes the volume's reserved index
// slots sheet by sheet until one parses, decoding through the
// mode-faithful path (emulated modes run the archived MODecode program on
// the index frame too). When every index slot is unreadable it tries the
// catalogs' compressed index replicas. The index is nil — with
// RestoreStats.IndexFallbacks counted — when no usable one exists; the
// caller falls back to a full restore. The only errors are a malformed
// Bootstrap and cancellation: each sheet probe checks the context so a
// query on a large damaged volume aborts between frame scans, wrapping
// ErrRestore and the context's error.
func (e *Engine) readIndex(v *media.Volume, bootstrapText string, ro RestoreOptions) (*bootstrap.Document, *archindex.Index, *RestoreStats, error) {
	doc, err := bootstrap.Parse(bootstrapText)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	st := &RestoreStats{Mode: ro.Mode, Sheets: make([]SheetReport, v.Sheets())}
	var dec frameDecoder
	if doc.Index {
		dec, err = newFrameDecoder(doc, ro.Mode)
	}
	probes := []emblem.Kind{emblem.KindIndex, emblem.KindCatalog}
	switch {
	case !doc.Index || err != nil:
		probes = nil
	case !doc.Catalog:
		probes = probes[:1]
	}
	ctx := orBackground(ro.Context)
	for _, kind := range probes {
		slot := 0
		if kind == emblem.KindIndex {
			slot = boolInt(doc.Catalog) // the index slot follows the catalog slot
		}
		for s := 0; s < v.Sheets(); s++ {
			if err := ctx.Err(); err != nil {
				return doc, nil, st, fmt.Errorf("%w: %w", ErrRestore, err)
			}
			m, err := v.Sheet(s)
			if err != nil || m.FrameCount() <= slot {
				continue
			}
			start, err := v.SheetStart(s)
			if err != nil {
				continue
			}
			res := e.probeFrame(v, start+slot, s, dec, st)
			if !res.decoded || res.hdr.Kind != kind {
				continue
			}
			body := res.payload
			if kind == emblem.KindCatalog {
				c, err := catalog.Parse(body)
				if err != nil || len(c.IndexReplica) == 0 {
					continue
				}
				body = c.IndexReplica
			}
			if x, err := archindex.Parse(body); err == nil {
				if kind == emblem.KindIndex {
					st.IndexFrames++
				} else {
					st.CatalogFrames++
				}
				return doc, x, st, nil
			}
		}
	}
	st.IndexFallbacks++
	return doc, nil, st, nil
}

// probeFrame scans and decodes one frame serially, tallying it like the
// full pipeline would. A frame that cannot be scanned reports not decoded.
func (e *Engine) probeFrame(v *media.Volume, i, sheet int, dec frameDecoder, st *RestoreStats) frameResult {
	sc := &e.scratch[0]
	scan, err := v.ScanFrameInto(&sc.scan, i)
	if err != nil {
		return frameResult{}
	}
	st.FramesScanned++
	st.Sheets[sheet].Frames++
	res := dec.decodeFrame(sc, scan)
	if !res.decoded {
		st.FramesFailed++
		st.Sheets[sheet].FramesFailed++
	}
	return res
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
// frames, closes each group through the full restore's group-close step
// as its last frame arrives, and decompresses only the overlapping
// restart blocks.
func (e *Engine) selectiveRange(v *media.Volume, doc *bootstrap.Document, x *archindex.Index, off, length int, ro RestoreOptions, st *RestoreStats) ([]byte, error) {
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
	// archived DBDecode program must be whole to run at all). The plan is
	// their frames in group order; every other frame of the volume is
	// skipped without a single ScanFrameInto call.
	var sel []groupExtent
	var plan []int
	for _, g := range geo {
		if (g.kind == kind && g.secOff < spanOff+spanLen && spanOff < g.secOff+g.secLen) ||
			(g.kind == emblem.KindSystem && ro.Mode != RestoreNative) {
			sel = append(sel, g)
			for f := 0; f < g.data+g.parity; f++ {
				plan = append(plan, g.scanStart+f)
			}
		}
	}

	dec, err := newFrameDecoder(doc, ro.Mode)
	if err != nil {
		return nil, fmt.Errorf("%w: bootstrap MODecode: %w", ErrRestore, err)
	}

	// Each group closes the moment its last frame arrives, through the
	// group-close step a full restore uses, so the recovered bytes are
	// byte-identical to the corresponding slice of a full restore — lost
	// groups included (Partial mode zero-fills exactly the group's stream
	// extent, which is what the full restore's trimmed sink writes). The
	// closer is an assembler used for that step alone; selective restore
	// reads no catalog, so it holds no group checksums.
	var spanBuf, sysBuf bytes.Buffer
	closer := &assembler{st: st, partial: ro.Partial, zeros: make([]byte, capacity)}
	var full [][]byte
	gi := 0
	consume := func(i int, res *frameResult) error {
		g := &sel[gi]
		p := plan[i] - g.scanStart
		sh := &st.Sheets[g.sheet]
		if p == 0 {
			full = make([][]byte, g.data+g.parity)
		}
		if res.scanned {
			st.FramesScanned++
			sh.Frames++
		}
		if res.decoded && int(res.hdr.GroupID) == g.id && int(res.hdr.GroupPos) == p {
			full[p] = make([]byte, capacity)
			copy(full[p], res.payload)
			st.BytesCorrected += res.corrected
		} else {
			st.FramesFailed++
			sh.FramesFailed++
		}
		if p < len(full)-1 {
			return nil
		}
		gi++
		st.GroupsDecoded++
		sh.Groups++
		rep := GroupReport{ID: g.id, Sheet: g.sheet, Kind: g.kind.String(), Frames: len(full)}
		for _, m := range full {
			if m == nil {
				rep.Missing++
			}
		}
		sink := &kindSink{w: &spanBuf, total: g.secLen}
		if g.kind == emblem.KindSystem {
			sink.w = &sysBuf
		}
		if err := closer.recoverGroup(full, g.data, &rep, sh, sink); err != nil {
			return err
		}
		st.Groups = append(st.Groups, rep)
		return nil
	}
	if err := dec.decodeFrames(orBackground(ro.Context), e.workers, e.scratch, len(plan), volumeScan(v, plan), consume); err != nil {
		return nil, err
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
	decompress, err := decompressor(ro.Mode, &sysBuf)
	if err != nil {
		return nil, err
	}
	var out []byte
	if len(blocks) == 0 {
		raw, err := decompress(stream)
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
			raw, err := decompress(stream[b.CompOff-spanOff : b.CompOff-spanOff+b.CompLen])
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
