package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"microlonys/dynarisc"
	"microlonys/internal/archindex"
	"microlonys/internal/bootstrap"
	"microlonys/internal/catalog"
	"microlonys/internal/dbcoder"
	"microlonys/internal/dynprog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/nested"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/raster"
	"microlonys/verisc"
)

// The archival pipeline (Figure 2a), as three explicit stages:
//
//	plan:   DBCoder + system stream → an io.Reader per section → fixed-size
//	        outer-code group plans, one at a time (serial; owns all
//	        cross-frame state: chunking, parity, header and index fixup)
//	encode: group plan → rasterized emblems (parallel per frame)
//	place:  emblems → the volume's sheets, in frame order, one whole group
//	        per write (serial; a group never straddles a sheet)
//
// With one worker the three stages run inline on the calling goroutine —
// the reference formulation the parallel path must match byte for byte.
// With more, the serial stages overlap the parallel middle (see
// pipelineGroups): the planner goroutine cuts groups and feeds frame
// tasks to the encode pool while the placer consumes finished groups in
// plan order, so planning group k+2, encoding group k+1 and writing
// group k proceed concurrently instead of the planner and placer
// stalling the pool at every group boundary.
//
// The planner streams: it reads one group's worth of payload bytes at a
// time and hands the group on before cutting the next, so peak memory is
// bounded by the groups in flight — exactly one when serial, at most
// pipelineGroupDepth+2 when pipelined (queue, plus one being planned and
// one being placed) — not the whole archive's frame list. Fixing headers
// and frame indices at planning time is what keeps the encode fan-out
// trivially deterministic: workers only rasterize, they never allocate
// indices or touch shared counters, and the placer writes whole groups
// in the order the planner emitted them.

// The archived decoder programs and the Bootstrap emulator are
// deterministic builds of static assembly; build each once per process
// instead of once per archive (they dominated CreateArchive's fixed cost
// for small archives). All consumers treat the programs as read-only.
var (
	buildOnce sync.Once
	builtEmu  *verisc.Program
	builtMO   *dynarisc.Program
	builtDB   *dynarisc.Program
	buildErr  error
)

func archivedPrograms() (*verisc.Program, *dynarisc.Program, *dynarisc.Program, error) {
	buildOnce.Do(func() {
		if builtEmu, buildErr = nested.Program(); buildErr != nil {
			buildErr = fmt.Errorf("core: building emulator: %w", buildErr)
			return
		}
		if builtMO, buildErr = dynprog.MODecode(); buildErr != nil {
			buildErr = fmt.Errorf("core: assembling MODecode: %w", buildErr)
			return
		}
		if builtDB, buildErr = dynprog.DBDecode(); buildErr != nil {
			buildErr = fmt.Errorf("core: assembling DBDecode: %w", buildErr)
		}
	})
	return builtEmu, builtMO, builtDB, buildErr
}

// frameTask is one planned emblem: the payload and the fully resolved
// header the encode stage will rasterize.
type frameTask struct {
	payload []byte
	hdr     emblem.Header
}

// groupPlan is one outer-code group's worth of planned frames — data
// emblems first, then parity — the unit the planner emits and the place
// stage writes atomically onto a sheet.
type groupPlan struct {
	tasks []frameTask
}

// CreateArchive runs the archival pipeline (Figure 2a) over an in-memory
// archive: db_dump output in, written volume + Bootstrap out. It is
// CreateArchiveStream over a bytes.Reader.
func CreateArchive(data []byte, opts Options) (*Archived, error) {
	return CreateArchiveStream(bytes.NewReader(data), opts)
}

// CreateArchiveStream runs the archival pipeline over an io.Reader,
// planning, encoding and placing one outer-code group at a time.
//
// Every frame header carries its section's TotalLen, so the planner needs
// each section's byte length before the first group is cut: compressed
// archives learn it from DBCoder's output (DBCoder is a whole-stream
// compressor, so the input is buffered regardless), raw archives read it
// from the reader's Len or Seek end without buffering, falling back to
// buffering only for unsized streams (pipes). The rasterized frames —
// three orders of magnitude larger than the payload bytes — are never
// materialized beyond the group in flight.
func CreateArchiveStream(r io.Reader, opts Options) (*Archived, error) {
	if opts.GroupData <= 0 {
		opts.GroupData = mocoder.GroupData
	}
	if opts.GroupParity <= 0 {
		opts.GroupParity = mocoder.GroupParity
	}
	if opts.GroupData > mocoder.GroupData || opts.GroupParity != mocoder.GroupParity {
		return nil, fmt.Errorf("core: unsupported group shape %d+%d", opts.GroupData, opts.GroupParity)
	}
	if opts.SheetFrames > 0 && opts.SheetFrames < opts.GroupData+opts.GroupParity {
		return nil, fmt.Errorf("core: sheet capacity %d below group size %d+%d",
			opts.SheetFrames, opts.GroupData, opts.GroupParity)
	}
	if reserved := boolInt(opts.Catalog) + boolInt(opts.Index); reserved > 0 && opts.SheetFrames > 0 &&
		opts.SheetFrames < opts.GroupData+opts.GroupParity+reserved {
		return nil, fmt.Errorf("core: sheet capacity %d below group size %d+%d plus %d reserved slots",
			opts.SheetFrames, opts.GroupData, opts.GroupParity, reserved)
	}
	layout := opts.Profile.Layout
	capacity := mocoder.Capacity(layout)
	if capacity <= 0 {
		return nil, fmt.Errorf("core: profile %q has zero emblem capacity", opts.Profile.Name)
	}

	// Resolve the sections: the (possibly compressed) data stream, then
	// the archived DBDecode instruction stream (system emblems).
	p := &planner{opts: opts, capacity: capacity}
	var sections []archiveSection
	var idxBlocks []dbcoder.SeekBlock
	var idxSections []archindex.Section
	if opts.Compress {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("core: reading input: %w", err)
		}
		depth := opts.CompressDepth
		if depth <= 0 {
			depth = dbcoder.DefaultDepth
		}
		var stream []byte
		if opts.Index {
			// Indexed archives use the seekable container: independently
			// decodable restart blocks whose raw/compressed extents the
			// index records, so a range query decompresses only the blocks
			// it overlaps.
			blockBytes := opts.IndexBlockBytes
			if blockBytes <= 0 {
				// Default: about one outer-code group of compressed
				// payload per block, but never more block-table entries
				// than the index frame can carry alongside its section
				// table (~16 raw bytes per entry against one frame's
				// capacity), or the trim ladder would drop the sections.
				blockBytes = opts.GroupData * capacity
				if maxBlocks := capacity / 16; maxBlocks > 0 {
					if minBytes := (len(data) + maxBlocks - 1) / maxBlocks; blockBytes < minBytes {
						blockBytes = minBytes
					}
				}
			}
			stream = dbcoder.CompressSeekableDepth(data, depth, blockBytes)
			if bl, err := dbcoder.SeekTable(stream); err == nil {
				idxBlocks = bl
			}
			idxSections = namedSections(data)
		} else {
			stream = dbcoder.CompressDepth(data, depth)
		}
		p.man.RawLen = len(data)
		p.man.StreamLen = len(stream)

		_, _, prog, err := archivedPrograms()
		if err != nil {
			return nil, err
		}
		sys := bootstrap.MarshalDynaRisc(prog)
		p.man.SystemLen = len(sys)
		sections = []archiveSection{
			{emblem.KindData, bytes.NewReader(stream), len(stream)},
			{emblem.KindSystem, bytes.NewReader(sys), len(sys)},
		}
	} else if opts.Index {
		// Section discovery needs the bytes in hand; raw indexed archives
		// buffer the input like compressed ones do.
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("core: reading input: %w", err)
		}
		idxSections = namedSections(data)
		p.man.RawLen = len(data)
		p.man.StreamLen = len(data)
		sections = []archiveSection{{emblem.KindRaw, bytes.NewReader(data), len(data)}}
	} else {
		total, rr, err := readerLen(r)
		if err != nil {
			return nil, fmt.Errorf("core: sizing input: %w", err)
		}
		p.man.RawLen = total
		p.man.StreamLen = total
		sections = []archiveSection{{emblem.KindRaw, rr, total}}
	}
	for _, sec := range sections {
		if int64(sec.total) > math.MaxUint32 {
			return nil, fmt.Errorf("core: section of %d bytes exceeds the 4 GiB header limit", sec.total)
		}
	}

	// Plan → encode → place. The section totals are known before the
	// first group is cut, so the whole archive's frame count is too —
	// the pool (and its scratch) never exceeds the frames there are to
	// encode.
	vol := media.NewVolume(opts.Profile, opts.SheetFrames)
	if opts.Catalog {
		if err := vol.EnableCatalog(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if opts.Index {
		if err := vol.EnableIndex(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	workers := resolveWorkers(opts.Workers, plannedFrames(sections, capacity, opts))
	scratch := make([]encScratch, workers)
	if workers == 1 {
		// Serial reference path: plan, encode and place each group inline.
		ctx := orBackground(opts.Context)
		emit := func(gp groupPlan) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			frames, err := encodeFrames(ctx, gp.tasks, layout, 1, scratch)
			if err != nil {
				return err
			}
			if err := vol.WriteGroup(frames); err != nil {
				return fmt.Errorf("core: writing medium: %w", err)
			}
			p.groupSheets = append(p.groupSheets, vol.Sheets()-1)
			return nil
		}
		for _, sec := range sections {
			if err := p.section(sec.kind, sec.r, sec.total, emit); err != nil {
				return nil, err
			}
		}
	} else if err := pipelineGroups(p, sections, layout, vol, workers, scratch); err != nil {
		return nil, err
	}
	p.man.Groups = p.groupID
	p.man.TotalFrames = p.frameIdx
	p.man.Sheets = vol.Sheets()

	// The deterministic archive identity both the catalog and the index
	// carry; computable only once every group checksum is collected.
	if opts.Catalog || opts.Index {
		p.man.ArchiveID = archiveID(p.opts, p.man, p.sums)
	}

	// Indexed volumes: marshal the selective-restore index once — block
	// and section tables are final after placement — so the catalog can
	// carry a replica and every sheet's index slot the same payload.
	var indexPayload []byte
	if opts.Index {
		x := &archindex.Index{
			ArchiveID:   p.man.ArchiveID,
			Compress:    opts.Compress,
			CatalogSlot: opts.Catalog,
			RawLen:      p.man.RawLen,
			StreamLen:   p.man.StreamLen,
			SystemLen:   p.man.SystemLen,
			GroupData:   opts.GroupData,
			GroupParity: opts.GroupParity,
			SheetFrames: opts.SheetFrames,
			Blocks:      idxBlocks,
			Sections:    idxSections,
		}
		var err error
		if indexPayload, err = x.Marshal(capacity); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	// Catalog volumes: with every group placed the inventory is complete,
	// so render each sheet's catalog emblem and back-patch the reserved
	// slot 0 (byte-identical to having written it in sequence).
	if opts.Catalog {
		if err := p.fillCatalogs(vol, capacity, &scratch[0], indexPayload); err != nil {
			return nil, err
		}
		p.man.CatalogFrames = vol.Sheets()
		p.man.TotalFrames += vol.Sheets()
	}
	if opts.Index {
		if err := p.fillIndexes(vol, indexPayload, &scratch[0]); err != nil {
			return nil, err
		}
		p.man.IndexFrames = vol.Sheets()
		p.man.TotalFrames += vol.Sheets()
	}

	// Step 6: Bootstrap document.
	emu, mo, _, err := archivedPrograms()
	if err != nil {
		return nil, err
	}
	doc := bootstrap.New(opts.Profile.Name, layout, opts.GroupData, opts.GroupParity, emu, mo)
	doc.Catalog = opts.Catalog
	doc.Index = opts.Index

	arch := &Archived{
		Volume:        vol,
		Bootstrap:     doc,
		BootstrapText: doc.Render(),
		Manifest:      p.man,
		Options:       opts,
	}
	if vol.Sheets() == 1 {
		arch.Medium, _ = vol.Sheet(0)
	}
	return arch, nil
}

// planner owns the archive side's cross-frame state: global frame and
// group counters and the manifest tallies. Section by section it cuts the
// stream into capacity-sized chunks, forms outer-code groups, computes
// their parity payloads and fixes every frame's header and index — then
// hands each group to the emit callback and forgets it.
type planner struct {
	opts     Options
	capacity int
	groupID  int
	frameIdx int
	man      Manifest

	// Catalog bookkeeping (Options.Catalog only): per-group checksum
	// records collected at planning time — the padded data payloads the
	// CRC covers are exactly what the planner just built — and the sheet
	// each group landed on, appended by the place stage in plan order.
	sums        []catalog.GroupSum
	groupSheets []int
}

// section plans one section's groups, reading exactly total bytes from r
// one group at a time. An empty section still occupies one empty chunk,
// so every section produces at least one emblem carrying its TotalLen.
func (p *planner) section(kind emblem.Kind, r io.Reader, total int, emit func(groupPlan) error) error {
	totalChunks := (total + p.capacity - 1) / p.capacity
	if totalChunks == 0 {
		totalChunks = 1
	}
	for chunk := 0; chunk < totalChunks; {
		g := p.opts.GroupData
		if g > totalChunks-chunk {
			g = totalChunks - chunk
		}

		group := make([][]byte, g)
		padded := make([][]byte, g)
		for i := range group {
			n := p.capacity
			if chunk+i == totalChunks-1 {
				n = total - (totalChunks-1)*p.capacity
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(r, buf); err != nil {
				return fmt.Errorf("core: reading section stream: %w", err)
			}
			group[i] = buf
			pd := make([]byte, p.capacity)
			copy(pd, buf)
			padded[i] = pd
		}
		parity, err := mocoder.GroupParityPayloads(padded)
		if err != nil {
			return fmt.Errorf("core: group parity: %w", err)
		}
		if p.opts.Catalog || p.opts.Index {
			p.sums = append(p.sums, catalog.GroupSum{
				Kind: kind, Data: uint8(g), Parity: uint8(len(parity)),
				CRC: catalog.GroupCRC(padded),
			})
		}

		// The emblem header stores frame indices and group ids as uint16;
		// reject archives that would wrap instead of corrupting silently
		// (the restore side's loss arithmetic depends on monotonic ids).
		if p.groupID > math.MaxUint16 || p.frameIdx+g+len(parity) > math.MaxUint16+1 {
			return fmt.Errorf("core: archive exceeds the header's 65536-frame/group limit (frame %d, group %d); split the input across volumes",
				p.frameIdx, p.groupID)
		}

		gp := groupPlan{tasks: make([]frameTask, 0, g+len(parity))}
		add := func(payload []byte, k emblem.Kind, pos int) {
			gp.tasks = append(gp.tasks, frameTask{
				payload: payload,
				hdr: emblem.Header{
					Kind:        k,
					Index:       uint16(p.frameIdx),
					GroupID:     uint16(p.groupID),
					GroupPos:    uint8(pos),
					GroupData:   uint8(g),
					GroupParity: uint8(p.opts.GroupParity),
					TotalLen:    uint32(total),
				},
			})
			p.frameIdx++
		}
		for i, c := range group {
			add(c, kind, i)
			if kind == emblem.KindSystem {
				p.man.SystemEmblems++
			} else {
				p.man.DataEmblems++
			}
		}
		for i, par := range parity {
			add(par, emblem.KindParity, g+i)
			p.man.ParityEmblems++
		}
		p.groupID++
		chunk += g

		if err := emit(gp); err != nil {
			return err
		}
	}
	return nil
}

// archiveSection is one planned section of the archive stream: its emblem
// kind, its byte source and its exact length (known before the first
// group is cut — every frame header carries the section TotalLen).
type archiveSection struct {
	kind  emblem.Kind
	r     io.Reader
	total int
}

// plannedFrames computes the archive's total frame count from the section
// lengths alone — the same chunk/group arithmetic planner.section walks,
// evaluated up front so the encode pool can be sized to the frames that
// will actually exist.
func plannedFrames(sections []archiveSection, capacity int, opts Options) int {
	frames := 0
	for _, sec := range sections {
		chunks := (sec.total + capacity - 1) / capacity
		if chunks == 0 {
			chunks = 1
		}
		groups := (chunks + opts.GroupData - 1) / opts.GroupData
		frames += chunks + groups*opts.GroupParity
	}
	return frames
}

// pipelineGroupDepth bounds how far the planner may run ahead of the
// placer, in whole queued groups. Frames in flight never exceed
// (pipelineGroupDepth+2)·GroupTotal — the queue plus the group being
// planned and the group being placed — which is the archive pipeline's
// peak-memory bound.
const pipelineGroupDepth = 2

// plannedGroup is a groupPlan in flight through the pipelined archive:
// the placer waits on done (closed when the encode pool has filled every
// frame slot), then reports the lowest-index frame error or writes the
// whole group to the volume.
type plannedGroup struct {
	tasks  []frameTask
	frames []*raster.Gray
	errs   []error
	left   int64 // frames not yet encoded; the last encoder closes done
	done   chan struct{}
}

// encodeTask is one frame of a plannedGroup awaiting rasterization.
type encodeTask struct {
	pg *plannedGroup
	i  int
}

// pipelineGroups runs plan → encode → place with the serial stages
// overlapped: a planner goroutine cuts groups and feeds the bounded
// groups queue (plan order, pipelineGroupDepth deep) and the frame-task
// channel; `workers` encode goroutines drain tasks into their group's
// frame slots; the placer — this goroutine — consumes the groups queue
// in order, waiting per group for its last frame. Output is byte-
// identical to the serial path at any worker count: frame indices,
// headers and group order are fixed at planning time, and the placer
// writes whole groups in plan order. Error precedence matches the serial
// path too — the first failing group in plan order reports its
// lowest-index frame error (cancelling the rest), and a planner error
// surfaces only once every group it emitted has been placed.
func pipelineGroups(p *planner, sections []archiveSection, layout emblem.Layout, vol *media.Volume, workers int, scratch []encScratch) error {
	ctx, cancel := context.WithCancel(orBackground(p.opts.Context))
	defer cancel()

	groups := make(chan *plannedGroup, pipelineGroupDepth)
	tasks := make(chan encodeTask, workers)

	// Plan stage. Every group reaches the groups queue before its frame
	// tasks are enqueued, so the queue order is the plan order. Once a
	// group is queued, all its tasks follow whatever the context does:
	// the placer may already be waiting on that group's done channel, and
	// only the last task closes it. The sends cannot block for good, since
	// the workers drain every task (without encoding after a cancel).
	planErr := make(chan error, 1)
	go func() {
		defer close(groups)
		defer close(tasks)
		emit := func(gp groupPlan) error {
			pg := &plannedGroup{
				tasks:  gp.tasks,
				frames: make([]*raster.Gray, len(gp.tasks)),
				errs:   make([]error, len(gp.tasks)),
				left:   int64(len(gp.tasks)),
				done:   make(chan struct{}),
			}
			select {
			case groups <- pg:
			case <-ctx.Done():
				return ctx.Err()
			}
			for i := range pg.tasks {
				tasks <- encodeTask{pg, i}
			}
			return ctx.Err()
		}
		var err error
		for _, sec := range sections {
			if err = p.section(sec.kind, sec.r, sec.total, emit); err != nil {
				break
			}
		}
		planErr <- err
	}()

	// Encode stage: the parallel middle. After cancellation the workers
	// keep draining tasks without encoding so every group's done channel
	// still closes.
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for t := range tasks {
				if ctx.Err() == nil {
					ft := &t.pg.tasks[t.i]
					img, err := scratch[worker].enc.Encode(ft.payload, ft.hdr, layout)
					if err != nil {
						kind := "emblem"
						if ft.hdr.Kind == emblem.KindParity {
							kind = "parity emblem"
						}
						t.pg.errs[t.i] = fmt.Errorf("core: encoding %s: %w", kind, err)
					} else {
						t.pg.frames[t.i] = img
					}
				}
				if atomic.AddInt64(&t.pg.left, -1) == 0 {
					close(t.pg.done)
				}
			}
		}(w)
	}

	// Place stage, on the calling goroutine. After an error it keeps
	// draining the queue (without waiting) so the planner can unblock and
	// observe the cancellation.
	var placeErr error
	for pg := range groups {
		if placeErr != nil {
			continue
		}
		<-pg.done
		for _, err := range pg.errs {
			if err != nil {
				placeErr = err
				break
			}
		}
		if placeErr == nil {
			// After a cancel from outside, the workers skip encoding, so
			// the group may hold empty frame slots: it must not reach the
			// volume.
			placeErr = ctx.Err()
		}
		if placeErr == nil {
			if err := vol.WriteGroup(pg.frames); err != nil {
				placeErr = fmt.Errorf("core: writing medium: %w", err)
			} else {
				p.groupSheets = append(p.groupSheets, vol.Sheets()-1)
			}
		}
		if placeErr != nil {
			cancel()
		}
	}
	err := <-planErr
	wg.Wait()
	if placeErr != nil {
		return placeErr
	}
	return err
}

// orBackground resolves an optional caller context.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// fillCatalogs renders one catalog emblem per sheet — shared archive
// identity, inventory, checksums, bootstrap replica — and back-patches
// each sheet's reserved slot 0. Runs after placement, when the whole
// inventory is known; serial, on the caller's goroutine.
func (p *planner) fillCatalogs(vol *media.Volume, capacity int, scratch *encScratch, indexPayload []byte) error {
	emu, mo, _, err := archivedPrograms()
	if err != nil {
		return err
	}
	replica := catalog.EncodeEssentials(emu, mo)

	sheets := make([]catalog.SheetRange, vol.Sheets())
	for s := range sheets {
		start, err := vol.SheetStart(s)
		if err != nil {
			return fmt.Errorf("core: catalog inventory: %w", err)
		}
		m, err := vol.Sheet(s)
		if err != nil {
			return fmt.Errorf("core: catalog inventory: %w", err)
		}
		sheets[s] = catalog.SheetRange{StartFrame: start, Frames: m.FrameCount(), StartGroup: -1}
	}
	for g, s := range p.groupSheets {
		if sheets[s].Groups == 0 {
			sheets[s].StartGroup = g
		}
		sheets[s].Groups++
	}

	c := &catalog.Catalog{
		ArchiveID:    p.man.ArchiveID,
		SheetCount:   vol.Sheets(),
		TotalFrames:  p.frameIdx + vol.Sheets()*vol.ReservedSlots(),
		TotalGroups:  p.groupID,
		GroupData:    p.opts.GroupData,
		GroupParity:  p.opts.GroupParity,
		Layout:       p.opts.Profile.Layout,
		ProfileName:  p.opts.Profile.Name,
		Compress:     p.opts.Compress,
		RawLen:       p.man.RawLen,
		StreamLen:    p.man.StreamLen,
		SystemLen:    p.man.SystemLen,
		Instructions: catalog.Instructions(),
		Sheets:       sheets,
		Groups:       p.sums,
		Replica:      replica,
		IndexSlot:    p.opts.Index,
		IndexReplica: indexPayload,
	}
	for s := 0; s < vol.Sheets(); s++ {
		c.Sheet = s
		payload, err := c.Marshal(capacity)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		hdr := emblem.Header{
			Kind:    emblem.KindCatalog,
			Index:   uint16(s),
			Total:   uint16(vol.Sheets()),
			GroupID: emblem.CatalogGroupID,
			// GroupData 0 marks the frame as belonging to no outer-code
			// group; the assembler consumes it out-of-band.
			TotalLen: uint32(len(payload)),
		}
		img, err := scratch.enc.Encode(payload, hdr, p.opts.Profile.Layout)
		if err != nil {
			return fmt.Errorf("core: encoding catalog emblem: %w", err)
		}
		if err := vol.FillCatalog(s, img); err != nil {
			return fmt.Errorf("core: placing catalog emblem: %w", err)
		}
	}
	return nil
}

// fillIndexes renders the selective-restore index emblem — the same
// payload on every sheet, so any single surviving sheet can answer a
// range query — and back-patches each sheet's reserved index slot. Runs
// after placement, when the block and section tables and the archive
// identity are final; serial, on the caller's goroutine.
func (p *planner) fillIndexes(vol *media.Volume, payload []byte, scratch *encScratch) error {
	for s := 0; s < vol.Sheets(); s++ {
		hdr := emblem.Header{
			Kind:    emblem.KindIndex,
			Index:   uint16(s),
			Total:   uint16(vol.Sheets()),
			GroupID: emblem.IndexGroupID,
			// GroupData 0 marks the frame as belonging to no outer-code
			// group; the assembler consumes it out-of-band.
			TotalLen: uint32(len(payload)),
		}
		img, err := scratch.enc.Encode(payload, hdr, p.opts.Profile.Layout)
		if err != nil {
			return fmt.Errorf("core: encoding index emblem: %w", err)
		}
		if err := vol.FillIndex(s, img); err != nil {
			return fmt.Errorf("core: placing index emblem: %w", err)
		}
	}
	return nil
}

// namedSections derives the index's named byte ranges from the raw
// archive: one table section per SQL-dump COPY block plus one column
// section per column. A column's extent is the minimal contiguous cover —
// its table's whole rows region, since row-major dumps interleave
// columns. Input that is not a SQL dump simply yields no named sections;
// range queries still work, table queries fall back to a full restore.
func namedSections(data []byte) []archindex.Section {
	secs, err := sqldump.Sections(data)
	if err != nil {
		return nil
	}
	var out []archindex.Section
	for _, s := range secs {
		out = append(out, archindex.Section{Kind: archindex.SectionTable, Name: s.Table, Off: s.Off, Len: s.Len})
	}
	for _, s := range secs {
		for _, c := range s.Columns {
			out = append(out, archindex.Section{Kind: archindex.SectionColumn, Name: s.Table + "." + c, Off: s.Off, Len: s.Len})
		}
	}
	return out
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// archiveID derives the deterministic archive identity rendered into
// every catalog emblem: FNV-64a over the layout, group shape, section
// lengths and every group checksum — any two archives with identical
// content and configuration share an id, any payload difference changes
// it.
func archiveID(opts Options, man Manifest, sums []catalog.GroupSum) uint64 {
	const offset64, prime64 = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	for _, b := range []byte(opts.Profile.Name) {
		h ^= uint64(b)
		h *= prime64
	}
	mix(uint64(opts.Profile.Layout.DataW))
	mix(uint64(opts.Profile.Layout.DataH))
	mix(uint64(opts.GroupData))
	mix(uint64(opts.GroupParity))
	mix(uint64(man.RawLen))
	mix(uint64(man.StreamLen))
	mix(uint64(man.SystemLen))
	for _, s := range sums {
		mix(uint64(s.CRC))
	}
	return h
}

// readerLen determines how many bytes r will deliver without consuming
// it: Len (bytes.Reader, strings.Reader, bytes.Buffer), Seek-to-end
// arithmetic (files), or full buffering as a last resort for unsized
// streams. The planner needs each section's length before the first group
// is cut, because every frame header carries the section TotalLen.
func readerLen(r io.Reader) (int, io.Reader, error) {
	if v, ok := r.(interface{ Len() int }); ok {
		return v.Len(), r, nil
	}
	if s, ok := r.(io.Seeker); ok {
		cur, err := s.Seek(0, io.SeekCurrent)
		if err == nil {
			end, err := s.Seek(0, io.SeekEnd)
			if err != nil {
				return 0, nil, err
			}
			if _, err := s.Seek(cur, io.SeekStart); err != nil {
				return 0, nil, err
			}
			return int(end - cur), r, nil
		}
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return 0, nil, err
	}
	return len(data), bytes.NewReader(data), nil
}

// encScratch is one worker's reusable frame-encode state, the archive
// side's counterpart of restore's emuScratch: the mocoder.Encoder holds
// the padded-payload, RS-codeword, interleave and bit-stream buffers plus
// the cached serpentine path. Each worker id owns exactly one goroutine
// for a run (see forEachFrame), so the scratch is reused serially without
// locks and a steady-state frame encode allocates only the placed frame.
// The scratch slice outlives the per-group encode calls, so the reuse
// carries across groups.
type encScratch struct {
	enc mocoder.Encoder
}

// encodeFrames rasterizes one group plan's frames. Workers claim frames
// by index and write only frames[i], so the result order matches the plan
// regardless of scheduling; the first encode error cancels the rest.
func encodeFrames(ctx context.Context, tasks []frameTask, layout emblem.Layout, workers int, scratch []encScratch) ([]*raster.Gray, error) {
	frames := make([]*raster.Gray, len(tasks))
	err := forEachFrame(ctx, workers, len(tasks), func(_ context.Context, worker, i int) error {
		img, err := scratch[worker].enc.Encode(tasks[i].payload, tasks[i].hdr, layout)
		if err != nil {
			kind := "emblem"
			if tasks[i].hdr.Kind == emblem.KindParity {
				kind = "parity emblem"
			}
			return fmt.Errorf("core: encoding %s: %w", kind, err)
		}
		frames[i] = img
		return nil
	})
	if err != nil {
		return nil, err
	}
	return frames, nil
}
