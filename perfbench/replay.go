package main

import (
	"fmt"
	"sort"

	"microlonys"
	"microlonys/dynarisc"
	"microlonys/internal/archindex"
	"microlonys/internal/bootstrap"
	"microlonys/internal/dbcoder"
	"microlonys/internal/dynprog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/media"
	"microlonys/raster"
)

// The layer replay re-runs one operation serially through each layer's
// public functions, in the order the pipeline calls them, with one span
// per call. It reproduces the facade's output bytes — the callers check
// that — so the spans time the same work the facade did. What the replay
// leaves out (catalog and index emblems, checksum verification, the
// pipeline's hand-offs) is the serial residual the record reports.

// Span names, one per replayed layer call.
const (
	spCompress   = "dbcoder.Compress"
	spParity     = "mocoder.GroupParityPayloads"
	spEncode     = "mocoder.Encoder.Encode"
	spWriteGroup = "media.Volume.WriteGroup"
	spScan       = "media.Volume.ScanFrameInto"
	spDecode     = "mocoder.DecodeWith"
	spRecover    = "mocoder.RecoverGroup"
	spDecompress = "dbcoder.Decompress"
	spRectify    = "mocoder.Rectify"
	spMODecode   = "dynarisc.CPU.Run/MODecode"
	spDBDecode   = "dynarisc.CPU.Run/DBDecode"
	spIndexParse = "archindex.Parse"
)

// replayCounts are the counts the replayed layers report.
type replayCounts struct {
	decodes, decodeFailed int // frame decodes attempted / failed
	bytesCorrected        int
	moSteps, dbSteps      uint64
}

// replayArchive rebuilds the archive of dump through DBCoder, the outer
// code, the emblem encoder and the volume's group writer, cutting the
// stream into groups exactly as the archive planner does. Catalog slots
// are reserved but left blank: catalog emblems are not replayed.
func replayArchive(tr *tracer, parent int, dump []byte, opts microlonys.Options) (*media.Volume, error) {
	if !opts.Compress || opts.Index || opts.CompressDepth != 0 {
		return nil, fmt.Errorf("archive replay covers default-depth compressed, unindexed archives")
	}
	layout := opts.Profile.Layout
	capacity := mocoder.Capacity(layout)
	var stream []byte
	tr.call(spCompress, parent, func() { stream = dbcoder.Compress(dump) })
	dbProg, err := dynprog.DBDecode()
	if err != nil {
		return nil, err
	}
	vol := media.NewVolume(opts.Profile, opts.SheetFrames)
	if opts.Catalog {
		if err := vol.EnableCatalog(); err != nil {
			return nil, err
		}
	}
	var enc mocoder.Encoder
	frameIdx, groupID := 0, 0
	for _, sec := range []struct {
		kind emblem.Kind
		b    []byte
	}{{emblem.KindData, stream}, {emblem.KindSystem, bootstrap.MarshalDynaRisc(dbProg)}} {
		total := len(sec.b)
		chunks := max(1, (total+capacity-1)/capacity)
		for chunk := 0; chunk < chunks; {
			g := min(mocoder.GroupData, chunks-chunk)
			data := make([][]byte, g)
			padded := make([][]byte, g)
			for i := range data {
				lo := (chunk + i) * capacity
				data[i] = sec.b[lo:min(lo+capacity, total)]
				padded[i] = make([]byte, capacity)
				copy(padded[i], data[i])
			}
			var parity [][]byte
			tr.call(spParity, parent, func() { parity, err = mocoder.GroupParityPayloads(padded) })
			if err != nil {
				return nil, err
			}
			frames := make([]*raster.Gray, 0, g+len(parity))
			for pos, payload := range append(data, parity...) {
				kind := sec.kind
				if pos >= g {
					kind = emblem.KindParity
				}
				hdr := emblem.Header{
					Kind: kind, Index: uint16(frameIdx), GroupID: uint16(groupID),
					GroupPos: uint8(pos), GroupData: uint8(g), GroupParity: uint8(mocoder.GroupParity),
					TotalLen: uint32(total),
				}
				var img *raster.Gray
				tr.call(spEncode, parent, func() { img, err = enc.Encode(payload, hdr, layout) })
				if err != nil {
					return nil, err
				}
				frames = append(frames, img)
				frameIdx++
			}
			tr.call(spWriteGroup, parent, func() { err = vol.WriteGroup(frames) })
			if err != nil {
				return nil, err
			}
			groupID++
			chunk += g
		}
	}
	return vol, nil
}

// sameGroupFrames checks that two volumes hold the same sheets and the
// same pixels in every frame outside the reserved catalog/index slots.
func sameGroupFrames(a, b *media.Volume) error {
	if a.Sheets() != b.Sheets() || a.FrameCount() != b.FrameCount() {
		return fmt.Errorf("volumes differ: %d/%d sheets, %d/%d frames", a.Sheets(), b.Sheets(), a.FrameCount(), b.FrameCount())
	}
	ca, cb := a.Clone(), b.Clone()
	ca.SetScanner(media.Distortions{})
	cb.SetScanner(media.Distortions{})
	reserved := a.ReservedSlots()
	for s := 0; s < a.Sheets(); s++ {
		start, err := a.SheetStart(s)
		if err != nil {
			return err
		}
		ma, _ := a.Sheet(s)
		mb, _ := b.Sheet(s)
		if ma.FrameCount() != mb.FrameCount() {
			return fmt.Errorf("sheet %d: %d vs %d frames", s, ma.FrameCount(), mb.FrameCount())
		}
		for j := reserved; j < ma.FrameCount(); j++ {
			fa, err := ca.ScanFrame(start + j)
			if err != nil {
				return err
			}
			fb, err := cb.ScanFrame(start + j)
			if err != nil {
				return err
			}
			if fa.W != fb.W || fa.H != fb.H || string(fa.Pix) != string(fb.Pix) {
				return fmt.Errorf("frame %d differs", start+j)
			}
		}
	}
	return nil
}

// frameDecoder scans and decodes one frame through the replayed layers:
// the native MOCoder decoder, or — under emulation — host-side rectify
// followed by the archived MODecode program on the DynaRisc CPU.
type frameDecoder struct {
	tr       *tracer
	parent   int
	vol      *media.Volume
	emulated bool
	counts   replayCounts

	scan   media.ScanScratch
	dec    mocoder.DecodeScratch
	moProg *dynarisc.Program
	cpu    *dynarisc.CPU
	in     []uint16
}

func newFrameDecoder(tr *tracer, parent int, vol *media.Volume, emulated bool) (*frameDecoder, error) {
	d := &frameDecoder{tr: tr, parent: parent, vol: vol, emulated: emulated}
	if emulated {
		var err error
		if d.moProg, err = dynprog.MODecode(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// frame returns frame i's payload and header; ok is false when the frame
// does not decode (the outer code's business, not an error).
func (d *frameDecoder) frame(i int) (payload []byte, hdr emblem.Header, ok bool, err error) {
	var img *raster.Gray
	d.tr.call(spScan, d.parent, func() { img, err = d.vol.ScanFrameInto(&d.scan, i) })
	if err != nil {
		return nil, hdr, false, err
	}
	d.counts.decodes++
	if !d.emulated {
		var st *mocoder.Stats
		var derr error
		d.tr.call(spDecode, d.parent, func() { payload, hdr, st, derr = mocoder.DecodeWith(&d.dec, img, d.vol.Profile().Layout) })
		if st != nil {
			d.counts.bytesCorrected += st.BytesCorrected
		}
		if derr != nil {
			d.counts.decodeFailed++
			return nil, hdr, false, nil
		}
		return payload, hdr, true, nil
	}
	payload, hdr, ok = d.emulatedFrame(img)
	if !ok {
		d.counts.decodeFailed++
	}
	return payload, hdr, ok, nil
}

// emulatedFrame mirrors the Bootstrap's decode procedure: rectify onto
// the nominal 3 px grid, frame the pixels as [W, H, dataW, dataH, pix...],
// run MODecode, and split the voted header from the payload.
func (d *frameDecoder) emulatedFrame(img *raster.Gray) ([]byte, emblem.Header, bool) {
	l := d.vol.Profile().Layout
	rl := l
	rl.PxPerModule = min(rl.PxPerModule, 3)
	var rect *raster.Gray
	var err error
	d.tr.call(spRectify, d.parent, func() { rect, err = mocoder.Rectify(img, rl) })
	if err != nil {
		return nil, emblem.Header{}, false
	}
	d.in = append(d.in[:0], uint16(rect.W), uint16(rect.H), uint16(l.DataW), uint16(l.DataH))
	d.in = dynarisc.AppendInWords(d.in, rect.Pix)
	if d.cpu == nil {
		d.cpu = dynarisc.NewCPU(dynprog.MOMemWords(rect))
	} else {
		d.cpu.Reset()
		d.cpu.EnsureMem(dynprog.MOMemWords(rect))
	}
	d.cpu.MaxSteps = 60_000_000_000
	if err := d.cpu.LoadProgram(d.moProg.Org, d.moProg.Words); err != nil {
		return nil, emblem.Header{}, false
	}
	d.cpu.In = d.in
	d.tr.call(spMODecode, d.parent, func() { err = d.cpu.Run() })
	d.counts.moSteps += d.cpu.Steps
	if err != nil {
		return nil, emblem.Header{}, false
	}
	out := d.cpu.OutBytes()
	if len(out) < emblem.HeaderSize {
		return nil, emblem.Header{}, false
	}
	hdr, err := emblem.ParseHeader(out[:emblem.HeaderSize])
	if err != nil {
		return nil, emblem.Header{}, false
	}
	return out[emblem.HeaderSize:], hdr, true
}

// groupAcc collects one outer-code group's decoded members.
type groupAcc struct {
	kind    emblem.Kind
	total   int
	data    int
	members [][]byte
}

// add files a decoded group frame under its group, padded to capacity.
func addMember(groups map[int]*groupAcc, payload []byte, hdr emblem.Header, capacity int) {
	g := groups[int(hdr.GroupID)]
	if g == nil {
		g = &groupAcc{data: int(hdr.GroupData), members: make([][]byte, int(hdr.GroupData)+int(hdr.GroupParity))}
		groups[int(hdr.GroupID)] = g
	}
	if int(hdr.GroupPos) >= len(g.members) {
		return
	}
	p := make([]byte, capacity)
	copy(p, payload)
	g.members[hdr.GroupPos] = p
	if hdr.Kind != emblem.KindParity {
		g.kind, g.total = hdr.Kind, int(hdr.TotalLen)
	}
}

// recoverGroups runs the outer code on every group with missing members
// and appends each section's data, in group order and trimmed to the
// section length, to its stream.
func recoverGroups(tr *tracer, parent int, groups map[int]*groupAcc) (map[emblem.Kind][]byte, error) {
	ids := make([]int, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	streams := map[emblem.Kind][]byte{}
	for _, id := range ids {
		g := groups[id]
		missing := false
		for _, m := range g.members {
			missing = missing || m == nil
		}
		if missing {
			var err error
			tr.call(spRecover, parent, func() { err = mocoder.RecoverGroup(g.members) })
			if err != nil {
				return nil, fmt.Errorf("group %d: %w", id, err)
			}
		}
		for _, m := range g.members[:g.data] {
			s := streams[g.kind]
			streams[g.kind] = append(s, m[:min(len(m), g.total-len(s))]...)
		}
	}
	return streams, nil
}

// replayRestore restores a whole volume through the replayed layers:
// scan and decode every frame, recover groups, then DBCoder decompress —
// natively, or by running the archived DBDecode from the system emblems.
func replayRestore(tr *tracer, parent int, vol *media.Volume, emulated bool) ([]byte, replayCounts, error) {
	d, err := newFrameDecoder(tr, parent, vol, emulated)
	if err != nil {
		return nil, replayCounts{}, err
	}
	capacity := mocoder.Capacity(vol.Profile().Layout)
	groups := map[int]*groupAcc{}
	for i := 0; i < vol.FrameCount(); i++ {
		payload, hdr, ok, err := d.frame(i)
		if err != nil {
			return nil, d.counts, err
		}
		if ok && hdr.GroupData > 0 && hdr.Kind != emblem.KindCatalog && hdr.Kind != emblem.KindIndex {
			addMember(groups, payload, hdr, capacity)
		}
	}
	streams, err := recoverGroups(tr, parent, groups)
	if err != nil {
		return nil, d.counts, err
	}
	blob := streams[emblem.KindData]
	if !emulated {
		var out []byte
		tr.call(spDecompress, parent, func() { out, err = dbcoder.Decompress(blob) })
		return out, d.counts, err
	}
	dbProg, err := bootstrap.UnmarshalDynaRisc(streams[emblem.KindSystem])
	if err != nil {
		return nil, d.counts, err
	}
	rawLen, err := dbcoder.RawLen(blob)
	if err != nil {
		return nil, d.counts, err
	}
	cpu := dynarisc.NewCPU(dynprog.DBOutBuf + rawLen + 4096)
	cpu.MaxSteps = 60_000_000_000
	if err := cpu.LoadProgram(dbProg.Org, dbProg.Words); err != nil {
		return nil, d.counts, err
	}
	cpu.SetInBytes(blob)
	cpu.ReserveOut(rawLen)
	tr.call(spDBDecode, parent, func() { err = cpu.Run() })
	d.counts.dbSteps += cpu.Steps
	if err != nil {
		return nil, d.counts, err
	}
	out := cpu.OutBytes()
	return out, d.counts, dbcoder.Verify(blob, out)
}

// replayRange answers one range query through the replayed layers: probe
// the first sheet's index emblem, map the range to its DBS1 restart
// blocks and their outer-code groups, decode only those groups, and
// decompress only the overlapping blocks.
func replayRange(tr *tracer, parent int, vol *media.Volume, off, length int) ([]byte, replayCounts, error) {
	d, err := newFrameDecoder(tr, parent, vol, false)
	if err != nil {
		return nil, replayCounts{}, err
	}
	capacity := mocoder.Capacity(vol.Profile().Layout)
	start, err := vol.SheetStart(0)
	if err != nil {
		return nil, d.counts, err
	}
	payload, hdr, ok, err := d.frame(start + boolInt(vol.CatalogEnabled()))
	if err != nil || !ok || hdr.Kind != emblem.KindIndex {
		return nil, d.counts, fmt.Errorf("index probe failed (ok=%v kind=%v): %v", ok, hdr.Kind, err)
	}
	var x *archindex.Index
	tr.call(spIndexParse, parent, func() { x, err = archindex.Parse(payload) })
	if err != nil {
		return nil, d.counts, err
	}
	var blocks []dbcoder.SeekBlock
	for _, b := range x.Blocks {
		if b.RawOff < off+length && off < b.RawOff+b.RawLen {
			blocks = append(blocks, b)
		}
	}
	if len(blocks) == 0 {
		return nil, d.counts, fmt.Errorf("range %d+%d outside the block table", off, length)
	}
	first, last := blocks[0], blocks[len(blocks)-1]
	gLo := first.CompOff / capacity / x.GroupData
	gHi := (last.CompOff + last.CompLen - 1) / capacity / x.GroupData
	starts := groupStarts(x, capacity, vol.ReservedSlots())
	groups := map[int]*groupAcc{}
	for g := gLo; g <= gHi; g++ {
		for i := starts[g].first; i < starts[g].first+starts[g].size; i++ {
			payload, hdr, ok, err := d.frame(i)
			if err != nil {
				return nil, d.counts, err
			}
			if ok && int(hdr.GroupID) == g {
				addMember(groups, payload, hdr, capacity)
			}
		}
	}
	streams, err := recoverGroups(tr, parent, groups)
	if err != nil {
		return nil, d.counts, err
	}
	comp := streams[emblem.KindData]
	base := gLo * x.GroupData * capacity
	var raw []byte
	for _, b := range blocks {
		var part []byte
		tr.call(spDecompress, parent, func() { part, err = dbcoder.Decompress(comp[b.CompOff-base : b.CompOff-base+b.CompLen]) })
		if err != nil {
			return nil, d.counts, err
		}
		raw = append(raw, part...)
	}
	return raw[off-first.RawOff : off-first.RawOff+length], d.counts, nil
}

// groupPlace is one group's first global frame index and frame count.
type groupPlace struct{ first, size int }

// groupStarts replays the archive's placement from the index geometry:
// the data section's groups then the system section's, each written
// whole after the sheet's reserved slots, cutting a new sheet whenever
// the open one lacks room (media.Volume.WriteGroup).
func groupStarts(x *archindex.Index, capacity, reserved int) []groupPlace {
	var out []groupPlace
	next, used := 0, -1
	for _, total := range []int{x.StreamLen, x.SystemLen} {
		chunks := max(1, (total+capacity-1)/capacity)
		for c := 0; c < chunks; c += x.GroupData {
			size := min(x.GroupData, chunks-c) + x.GroupParity
			if used < 0 || (x.SheetFrames > 0 && used+size > x.SheetFrames) {
				next += reserved
				used = reserved
			}
			out = append(out, groupPlace{next, size})
			next += size
			used += size
		}
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
