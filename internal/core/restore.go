package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"microlonys/dynarisc"
	"microlonys/internal/bootstrap"
	"microlonys/internal/catalog"
	"microlonys/internal/dbcoder"
	"microlonys/internal/dynprog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/nested"
	"microlonys/media"
	"microlonys/raster"
)

// The restoration pipeline (Figure 2b), as three explicit stages:
//
//	scan:       volume → per-frame scans (the simulated scanner)
//	decode:     scan → header + payload, natively or under emulation
//	reassemble: decoded frames → outer-code groups → streams → DBDecode
//
// Scan and decode are fused into one parallel per-frame stage — a scan
// feeds exactly one decode, so splitting them would only add a buffer of
// full-resolution frame images between two stages of the same fan-out.
// Reassembly is group-incremental: a serial consumer walks the frames in
// global index order as the workers finish them, and the moment a group's
// last frame is consumed the group is outer-recovered, trimmed and
// flushed — raw archives stream straight to the caller's io.Writer, and a
// frame's payload is released as soon as its group closes, so peak memory
// is bounded by the groups in flight instead of the whole archive. A
// frame that fails to decode is not an error — that is what the outer
// code is for — but a frame that cannot even be scanned aborts the run.

// frameResult is the decode stage's per-frame slot.
type frameResult struct {
	scanned   bool
	decoded   bool
	hdr       emblem.Header
	payload   []byte
	corrected int // inner-code corrections (native mode only)
}

// Restore runs the restoration pipeline (Figure 2b) against a scanned
// medium and the Bootstrap text with default options. It returns the
// original archive bytes.
func Restore(m *media.Medium, bootstrapText string, mode Mode) ([]byte, *RestoreStats, error) {
	return RestoreWithOptions(m, bootstrapText, RestoreOptions{Mode: mode})
}

// RestoreWithOptions is Restore with explicit options. The restored bytes
// and stats are identical at any worker count.
func RestoreWithOptions(m *media.Medium, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return RestoreVolume(media.VolumeOf(m), bootstrapText, ro)
}

// RestoreVolume restores a multi-sheet volume into memory: RestoreToWriter
// over a bytes.Buffer.
func RestoreVolume(v *media.Volume, bootstrapText string, ro RestoreOptions) ([]byte, *RestoreStats, error) {
	return NewEngine(ro.Workers).RestoreVolume(v, bootstrapText, ro)
}

// RestoreToWriter runs the restoration pipeline against a volume and the
// Bootstrap text, writing the restored archive bytes to w. Raw archives
// stream group by group as their frames decode; compressed archives
// accumulate only the (small) compressed stream before DBDecode runs. On
// error, w may already have received a prefix of the output.
func RestoreToWriter(w io.Writer, v *media.Volume, bootstrapText string, ro RestoreOptions) (*RestoreStats, error) {
	return NewEngine(ro.Workers).RestoreToWriter(w, v, bootstrapText, ro)
}

// RestoreToWriter is core.RestoreToWriter through the engine's reused
// scratch. The options' Workers field is overridden by the engine's pool
// size; results are byte-identical to the one-shot entry points at any
// worker count.
func (e *Engine) RestoreToWriter(w io.Writer, v *media.Volume, bootstrapText string, ro RestoreOptions) (*RestoreStats, error) {
	doc, err := bootstrap.Parse(bootstrapText)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrRestore, err)
	}
	layout := doc.Layout
	capacity := mocoder.Capacity(layout)
	st := &RestoreStats{Mode: ro.Mode, Sheets: make([]SheetReport, v.Sheets())}

	dec, err := newFrameDecoder(doc, ro.Mode)
	if err != nil {
		return st, fmt.Errorf("%w: bootstrap MODecode: %w", ErrRestore, err)
	}

	n := v.FrameCount()
	if n == 0 {
		return st, fmt.Errorf("%w: no readable frames", ErrRestore)
	}

	// Global frame index → sheet, for per-sheet stats and loss reports.
	// Reserved-slot volumes (declared by the Bootstrap's catalog=1 /
	// index=1): the leading frames of every sheet are out-of-band catalog
	// and index emblems the group assembler must treat as no group's
	// members — their loss is not a data loss.
	sheetOf := make([]int, n)
	var catSlot []bool
	reserved := boolInt(doc.Catalog) + boolInt(doc.Index)
	if reserved > 0 {
		catSlot = make([]bool, n)
	}
	for s, i := 0, 0; s < v.Sheets(); s++ {
		m, _ := v.Sheet(s)
		for j := 0; j < m.FrameCount(); j, i = j+1, i+1 {
			sheetOf[i] = s
			if j < reserved {
				catSlot[i] = true
			}
		}
	}

	asm := &assembler{
		st:          st,
		capacity:    capacity,
		groupParity: doc.GroupParity,
		partial:     ro.Partial,
		out:         w,
		sinks:       map[emblem.Kind]*kindSink{},
		sheetOf:     sheetOf,
		catSlot:     catSlot,
		zeros:       make([]byte, capacity),
		lastClosed:  -1,
	}
	err = dec.decodeFrames(orBackground(ro.Context), e.workers, e.scratch, n, volumeScan(v, nil), asm.consume)
	if err == nil {
		err = asm.finish()
	}
	if err != nil {
		return st, err
	}
	return st, decompressTail(w, asm, ro.Mode)
}

// frameDecoder is the decode stage: it turns a frame scan into header and
// payload under the restore mode — natively, or by running the archived
// MODecode program (moProg) under emulation.
type frameDecoder struct {
	layout emblem.Layout
	mode   Mode
	moProg *dynarisc.Program
}

// newFrameDecoder configures the decode stage from the Bootstrap
// document, loading its MODecode program for the emulated modes.
func newFrameDecoder(doc *bootstrap.Document, mode Mode) (frameDecoder, error) {
	d := frameDecoder{layout: doc.Layout, mode: mode}
	if mode == RestoreNative {
		return d, nil
	}
	var err error
	d.moProg, err = doc.MODecodeProgram()
	return d, err
}

// decodeFrame decodes one frame scan through the worker's scratch. A frame
// that fails to decode is reported in the result, not as an error — that
// is what the outer code is for.
func (d frameDecoder) decodeFrame(sc *scanScratch, scan *raster.Gray) frameResult {
	res := frameResult{scanned: true}
	var err error
	if d.mode == RestoreNative {
		var stats *mocoder.Stats
		res.payload, res.hdr, stats, err = mocoder.DecodeWith(&sc.dec, scan, d.layout)
		if stats != nil {
			res.corrected = stats.BytesCorrected
		}
	} else {
		res.payload, res.hdr, err = decodeFrameEmulated(sc, d.moProg, scan, d.layout, d.mode)
	}
	res.decoded = err == nil
	return res
}

// decodeFrames is the restore pipelines' streaming scan+decode stage over
// a plan of n frames. Workers scan (scan(sc, i) renders plan item i) and
// decode frames in any order; a consumer goroutine drains an ordered
// frontier, handing each frame to consume in strict plan order and then
// releasing its payload, so the serial stage that follows overlaps the
// fan-out. scan's error aborts the run; a nil scan with no error is an
// unreadable frame, delivered as not scanned. consume's error cancels the
// frames still queued and takes precedence; any other failure is returned
// wrapping ErrRestore — cancellation as both ErrRestore and the context's
// error.
func (d frameDecoder) decodeFrames(ctx context.Context, workers int, scratch []scanScratch, n int,
	scan func(sc *scanScratch, i int) (*raster.Gray, error), consume func(i int, res *frameResult) error) error {
	workers = resolveWorkers(workers, n)
	results := make([]frameResult, n)
	// Sized so workers never block on a momentarily busy consumer: twice
	// the live pool plus one group of slack.
	completed := make(chan int, 2*workers+mocoder.GroupData+mocoder.GroupParity)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	consumerErr := make(chan error, 1)
	go func() {
		fr := newFrontier(n)
		var cerr error
		for i := range completed {
			fr.complete(i)
			fr.drain(func(i int) {
				if cerr == nil {
					if cerr = consume(i, &results[i]); cerr != nil {
						cancel() // stop decoding frames the consumer will never use
					}
				}
				results[i] = frameResult{} // release the payload
			})
		}
		consumerErr <- cerr
	}()

	decErr := forEachFrame(ctx, workers, n, func(_ context.Context, worker, i int) error {
		sc := &scratch[worker]
		img, err := scan(sc, i)
		if err != nil {
			return err
		}
		if img != nil {
			results[i] = d.decodeFrame(sc, img)
		}
		completed <- i
		return nil
	})
	close(completed)
	if cerr := <-consumerErr; cerr != nil {
		return cerr
	}
	if decErr != nil && !errors.Is(decErr, ErrRestore) {
		return fmt.Errorf("%w: %w", ErrRestore, decErr)
	}
	return decErr
}

// volumeScan is decodeFrames' scan step over a volume: plan item i is
// global frame plan[i] (frame i itself when plan is nil). A frame that
// cannot even be scanned aborts the restore.
func volumeScan(v *media.Volume, plan []int) func(sc *scanScratch, i int) (*raster.Gray, error) {
	return func(sc *scanScratch, i int) (*raster.Gray, error) {
		if plan != nil {
			i = plan[i]
		}
		scan, err := v.ScanFrameInto(&sc.scan, i)
		if err != nil {
			return nil, fmt.Errorf("%w: scanning frame %d: %w", ErrRestore, i, err)
		}
		return scan, nil
	}
}

// decompressTail finishes a restore once every group has flushed: raw
// archives already streamed to w, compressed archives decompress the
// assembled stream. Shared between restore and salvage.
func decompressTail(w io.Writer, asm *assembler, mode Mode) error {
	// The raw section streamed directly to w as its groups closed.
	if asm.sinks[emblem.KindRaw] != nil {
		return nil
	}
	if asm.dataBuf == nil {
		return fmt.Errorf("%w: no data stream recovered", ErrRestore)
	}
	decompress, err := decompressor(mode, asm.sysBuf)
	if err != nil {
		return err
	}
	out, err := decompress(asm.dataBuf.Bytes())
	if err != nil {
		return err
	}
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("%w: writing output: %w", ErrRestore, err)
	}
	return nil
}

// decompressor returns the DBCoder stream decompressor for mode: the
// native decoder, or the archived DBDecode program reassembled from the
// system section (sys) run under emulation.
func decompressor(mode Mode, sys *bytes.Buffer) (func(blob []byte) ([]byte, error), error) {
	if mode == RestoreNative {
		return func(blob []byte) ([]byte, error) {
			out, err := dbcoder.Decompress(blob)
			if err != nil {
				return nil, fmt.Errorf("%w: %w", ErrRestore, err)
			}
			return out, nil
		}, nil
	}
	if sys == nil {
		return nil, fmt.Errorf("%w: system emblems (DBDecode) missing", ErrRestore)
	}
	dbProg, err := bootstrap.UnmarshalDynaRisc(sys.Bytes())
	if err != nil {
		return nil, fmt.Errorf("%w: system emblem payload: %w", ErrRestore, err)
	}
	return func(blob []byte) ([]byte, error) { return emulatedDecompress(dbProg, blob, mode) }, nil
}

// kindSink accumulates one section's recovered stream, trimming at the
// header-declared TotalLen. The raw section's sink is the caller's writer;
// the data and system sections buffer (DBDecode needs the whole stream).
type kindSink struct {
	w       io.Writer
	total   int // section TotalLen from the headers; -1 until known
	written int
}

// write appends b to the sink, trimmed so the section never exceeds its
// TotalLen (frame payloads are padded to emblem capacity).
func (s *kindSink) write(b []byte) (int, error) {
	rem := s.total - s.written
	if rem > len(b) {
		rem = len(b)
	}
	if rem <= 0 {
		return 0, nil
	}
	if _, err := s.w.Write(b[:rem]); err != nil {
		// Both %w verbs matter: callers match ErrRestore for "the restore
		// failed" and the sink's own error for "my writer did this".
		return 0, fmt.Errorf("%w: writing output: %w", ErrRestore, err)
	}
	s.written += rem
	return rem, nil
}

// assembler is the group-incremental reassemble stage. It consumes frames
// in strict global index order and reconstructs the outer-code groups
// from their headers: a decoded frame at index i with group position p
// places its group's frames at indices [i-p, i-p+data+parity) — the place
// stage wrote groups contiguously, so the range is exact, and failed
// frames inside it are the group's missing members. A run of failed
// frames no decoded header claims is a wholly-lost range (a destroyed
// carrier): fatal normally, counted and zero-filled in Partial mode.
type assembler struct {
	st          *RestoreStats
	capacity    int
	groupParity int // the Bootstrap's parity-per-group (loss arithmetic)
	partial     bool
	out         io.Writer
	dataBuf     *bytes.Buffer
	sysBuf      *bytes.Buffer
	sinks       map[emblem.Kind]*kindSink
	sheetOf     []int
	catSlot     []bool // per-index: reserved catalog slot (nil when catalog off)
	sums        []catalog.GroupSum
	zeros       []byte

	cur struct {
		known   bool
		id      int
		start   int
		data    int
		parity  int
		kind    emblem.Kind // from data members; 0 if only parity decoded
		total   uint32
		members map[int][]byte
	}
	runStart, runLen int // consumed failed frames no group has claimed
	lastClosed       int // group id of the last closed group (-1 initially)
	decoded          int

	// pendingZeroFrames is Partial-mode fill owed before the next group
	// flushes: a lost range (or a kind-unknown lost group) with no
	// section sink open yet cannot be placed until the next surviving
	// group reveals the section — the fill happens in closeGroup, ahead
	// of that group's own bytes, so output offsets hold.
	pendingZeroFrames int
}

// consume feeds the frame at global index i (frames arrive in strictly
// increasing order) into the group state machine.
func (a *assembler) consume(i int, res *frameResult) error {
	sh := &a.st.Sheets[a.sheetOf[i]]
	sh.Frames++
	if res.scanned {
		a.st.FramesScanned++
	}
	ok := res.decoded
	if ok {
		a.decoded++
		a.st.BytesCorrected += res.corrected
	} else {
		a.st.FramesFailed++
		sh.FramesFailed++
	}

	// Catalog frames are out-of-band: they belong to no outer-code group,
	// so they never open, join or close one. The first readable catalog
	// supplies the per-group checksums closeGroup verifies against. A
	// catalog frame that failed to decode falls through to the ordinary
	// failed-frame path — the loss arithmetic discounts reserved slots.
	if ok && res.hdr.Kind == emblem.KindCatalog {
		a.st.CatalogFrames++
		if a.sums == nil {
			if c, err := catalog.Parse(res.payload); err == nil && len(c.Groups) > 0 {
				a.sums = c.Groups
			}
		}
		return nil
	}

	// Index frames are likewise out-of-band: the selective-restore index
	// serves RestoreRange/RestoreTable queries, not a full restore — here
	// it only needs to stay clear of the group state machine.
	if ok && res.hdr.Kind == emblem.KindIndex {
		a.st.IndexFrames++
		return nil
	}

	if !a.cur.known {
		// A decoded frame opens (and locates) a new group. A failed frame —
		// or a decoded one whose header cannot describe a group, counted
		// failed — extends the run of frames no group has claimed.
		start := i - int(res.hdr.GroupPos)
		size := int(res.hdr.GroupData) + int(res.hdr.GroupParity)
		if !ok || res.hdr.GroupData == 0 || start < 0 || i >= start+size {
			if ok {
				a.st.FramesFailed++
				sh.FramesFailed++
			}
			if a.runLen == 0 {
				a.runStart = i
			}
			a.runLen++
			return nil
		}
		if a.runLen > 0 {
			if a.runStart < start {
				// Failed frames before this group's start belong to groups no
				// surviving frame identifies — carrier loss beyond the outer code.
				if err := a.lostRange(a.runStart, start-a.runStart, int(res.hdr.GroupID)); err != nil {
					return err
				}
			}
			// Failed frames inside [start, i) are this group's missing members;
			// closeGroup counts them as size - len(members).
			a.runLen = 0
		}
		a.cur.known = true
		a.cur.id = int(res.hdr.GroupID)
		a.cur.start = start
		a.cur.data = int(res.hdr.GroupData)
		a.cur.parity = int(res.hdr.GroupParity)
		a.cur.kind = 0
		a.cur.total = 0
		a.cur.members = map[int][]byte{}
	}

	if ok {
		pos := i - a.cur.start
		if int(res.hdr.GroupID) != a.cur.id || int(res.hdr.GroupPos) != pos {
			// Header disagrees with the group's placement: the frame
			// decoded but contributes nothing — count it failed so the
			// loss arithmetic stays consistent.
			a.st.FramesFailed++
			sh.FramesFailed++
		} else {
			padded := make([]byte, a.capacity)
			copy(padded, res.payload)
			a.cur.members[pos] = padded
			if res.hdr.Kind != emblem.KindParity {
				a.cur.kind = res.hdr.Kind
				a.cur.total = res.hdr.TotalLen
			}
		}
	}
	if i == a.cur.start+a.cur.data+a.cur.parity-1 {
		return a.closeGroup()
	}
	return nil
}

// closeGroup recovers and flushes the current group the moment its last
// frame index has been consumed.
func (a *assembler) closeGroup() error {
	size := a.cur.data + a.cur.parity
	sheet := a.sheetOf[a.cur.start]
	sh := &a.st.Sheets[sheet]
	sh.Groups++
	missing := size - len(a.cur.members)
	rep := GroupReport{ID: a.cur.id, Sheet: sheet, Frames: size, Missing: missing}
	defer func() {
		a.st.Groups = append(a.st.Groups, rep)
		a.lastClosed = a.cur.id
		a.cur.known = false
		a.cur.members = nil
	}()

	if a.cur.kind == 0 {
		// Only parity members decoded: the section kind and stream totals
		// are unknowable, so the group's bytes cannot be recovered — in
		// Partial mode its data frames still owe zero-fill so later
		// groups keep their offsets.
		if !a.partial {
			return fmt.Errorf("%w: group %d has no readable data emblems", ErrRestore, a.cur.id)
		}
		rep.Lost = true
		a.st.GroupsLost++
		sh.GroupsLost++
		return a.fillLost(a.cur.data)
	}
	rep.Kind = a.cur.kind.String()
	sink := a.sink(a.cur.kind)
	if sink.total < 0 {
		sink.total = int(a.cur.total)
	}
	// Fill owed for losses that preceded this section's first surviving
	// group, before this group's own bytes.
	if err := a.fillLost(0); err != nil {
		return err
	}

	full := make([][]byte, size)
	for pos, p := range a.cur.members {
		full[pos] = p
	}
	return a.recoverGroup(full, a.cur.data, &rep, sh, sink)
}

// recoverGroup is the group-close step full and selective restore share.
// It runs the outer code over a group's members (full, data positions
// first) when any are missing, applies the Partial or strict policy to a
// group beyond parity, verifies the recovered data against the catalog's
// group checksum when sums are present, and writes the data — zero-filled
// when lost — to sink. rep, sh and the run's stats receive the outcome.
func (a *assembler) recoverGroup(full [][]byte, data int, rep *GroupReport, sh *SheetReport, sink *kindSink) error {
	if rep.Missing > 0 {
		if err := mocoder.RecoverGroup(full); err != nil {
			if !a.partial {
				return fmt.Errorf("%w: group %d: %w", ErrRestore, rep.ID, err)
			}
			// Beyond parity: zero-fill the group's data bytes so every
			// later group's output offset stays where the archive put it.
			rep.Lost = true
			a.st.GroupsLost++
			sh.GroupsLost++
			for pos := 0; pos < data; pos++ {
				n, err := sink.write(a.zeros)
				if err != nil {
					return err
				}
				a.st.BytesLost += n
			}
			return nil
		}
		rep.Recovered = true
		a.st.GroupsRecovered++
		sh.GroupsRecovered++
	}
	// Verify the recovered data against the catalog's group checksum when
	// one is available. A mismatch means the bytes decoded but contradict
	// what was archived (silent corruption the outer code missed): fatal
	// normally, counted — and still written, they are the best available —
	// in Partial mode.
	if rep.ID < len(a.sums) {
		if catalog.GroupCRC(full[:data]) == a.sums[rep.ID].CRC {
			rep.Verified = true
			a.st.GroupsVerified++
		} else {
			if !a.partial {
				return fmt.Errorf("%w: group %d contradicts its catalog checksum", ErrRestore, rep.ID)
			}
			rep.Mismatched = true
			a.st.GroupsMismatched++
		}
	}
	for pos := 0; pos < data; pos++ {
		if _, err := sink.write(full[pos]); err != nil {
			return err
		}
	}
	return nil
}

// lostRange handles frames [start, start+n) that failed to decode and
// that no surviving frame's header claims: whole groups — typically a
// whole carrier — are gone. nextID is the group id that ends the range
// (the id of the group whose decoded frame exposed it), so the group
// arithmetic is exact: the range holds nextID-lastClosed-1 groups, each
// carrying groupParity parity frames, and the rest of its frames are data.
func (a *assembler) lostRange(start, n, nextID int) error {
	nCat := a.catalogSlots(start, n)
	lostGroups := nextID - a.lastClosed - 1
	if n == nCat && lostGroups <= 0 {
		// Every frame in the range is a reserved catalog slot and no group
		// id was skipped: an unreadable catalog costs context, not data —
		// never a restore failure.
		return nil
	}
	if !a.partial {
		return fmt.Errorf("%w: frames %d..%d unreadable and no group identifiable (carrier loss beyond parity)",
			ErrRestore, start, start+n-1)
	}
	a.st.FramesLost += n
	for i := start; i < start+n; i++ {
		a.st.Sheets[a.sheetOf[i]].FramesLost++
	}
	if lostGroups <= 0 {
		return nil // incoherent ids; the frames are already counted
	}
	a.st.GroupsLost += lostGroups
	a.st.Sheets[a.sheetOf[start]].GroupsLost += lostGroups
	// Report the lost groups so st.Groups stays complete in group order.
	// Their individual shapes are unknowable (the range may hold a
	// section's short final group), so each report carries the range's
	// even share.
	share := n / lostGroups
	for g := 0; g < lostGroups; g++ {
		a.st.Groups = append(a.st.Groups, GroupReport{
			ID:      a.lastClosed + 1 + g,
			Sheet:   a.sheetOf[start],
			Frames:  share,
			Missing: share,
			Lost:    true,
		})
	}
	// Zero-fill the lost data bytes so later groups stay at their archive
	// offsets: the range held lostGroups*groupParity parity frames and
	// nCat reserved catalog slots, the rest were data. When the range
	// spans a section boundary the fill past the section's TotalLen is
	// trimmed away and finish pads the following section instead.
	return a.fillLost(n - nCat - lostGroups*a.groupParity)
}

// catalogSlots counts the reserved catalog slots in [start, start+n) —
// the frames the loss arithmetic must not mistake for data.
func (a *assembler) catalogSlots(start, n int) int {
	if a.catSlot == nil {
		return 0
	}
	c := 0
	for i := start; i < start+n && i < len(a.catSlot); i++ {
		if a.catSlot[i] {
			c++
		}
	}
	return c
}

// fillLost zero-fills n lost data frames — plus any fill already owed —
// into the first open section sink. When no section is open yet (the loss
// precedes the section's first surviving group), the fill is deferred
// until closeGroup resolves the next group's sink, so output offsets
// hold; anything still owed at the end is covered by finish's pad.
func (a *assembler) fillLost(n int) error {
	n += a.pendingZeroFrames
	a.pendingZeroFrames = 0
	if n <= 0 {
		return nil
	}
	var sink *kindSink
	for _, k := range sectionKinds {
		if s := a.sinks[k]; s != nil && s.total >= 0 && s.written < s.total {
			sink = s
			break
		}
	}
	if sink == nil {
		a.pendingZeroFrames = n
		return nil
	}
	for f := 0; f < n; f++ {
		w, err := sink.write(a.zeros)
		if err != nil {
			return err
		}
		a.st.BytesLost += w
	}
	return nil
}

// finish closes the books once every frame has been consumed.
func (a *assembler) finish() error {
	if a.cur.known {
		// The volume ended inside a group's claimed range (truncated
		// carrier); close it with what decoded.
		if err := a.closeGroup(); err != nil {
			return err
		}
	}
	if a.runLen > 0 {
		// Trailing failed frames no group claims: there is no next group
		// id, so the group arithmetic is unavailable; the per-sink pad
		// below restores the output length.
		if !a.partial {
			return fmt.Errorf("%w: frames %d..%d unreadable and no group identifiable (carrier loss beyond parity)",
				ErrRestore, a.runStart, a.runStart+a.runLen-1)
		}
		a.st.FramesLost += a.runLen
		for i := a.runStart; i < a.runStart+a.runLen; i++ {
			a.st.Sheets[a.sheetOf[i]].FramesLost++
		}
		a.runLen = 0
	}
	if a.decoded == 0 {
		return fmt.Errorf("%w: no readable frames", ErrRestore)
	}
	for _, k := range sectionKinds {
		s := a.sinks[k]
		if s == nil || s.total < 0 || s.written >= s.total {
			continue
		}
		if !a.partial {
			return fmt.Errorf("%w: no data stream recovered (%d of %d bytes)", ErrRestore, s.written, s.total)
		}
		for s.written < s.total {
			n, err := s.write(a.zeros)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			a.st.BytesLost += n
		}
	}
	return nil
}

// sectionKinds is the archive's section emission order — the order loss
// arithmetic and padding walk the sinks, so results are deterministic.
var sectionKinds = []emblem.Kind{emblem.KindRaw, emblem.KindData, emblem.KindSystem}

// sink returns (creating on first use) the destination for a section
// kind: the raw section streams to the caller's writer, the data and
// system sections buffer for DBDecode.
func (a *assembler) sink(k emblem.Kind) *kindSink {
	if s := a.sinks[k]; s != nil {
		return s
	}
	var w io.Writer
	switch k {
	case emblem.KindRaw:
		w = a.out
	case emblem.KindData:
		a.dataBuf = &bytes.Buffer{}
		w = a.dataBuf
	case emblem.KindSystem:
		a.sysBuf = &bytes.Buffer{}
		w = a.sysBuf
	default:
		w = io.Discard // unknown section kinds are dropped
	}
	s := &kindSink{w: w, total: -1}
	a.sinks[k] = s
	return s
}

// emulatedDecompress runs the archived DBDecode program over the
// assembled compressed stream. The archived decoder reads one standalone
// DBCoder archive; seekable (DBS1) streams — what indexed archives write —
// are its restart blocks run back to back, so the emulated path decodes
// them block by block through the same program, exactly as the index's
// recovery instructions direct a future user to. The concatenated output
// is verified against the container's whole-stream length and checksum.
func emulatedDecompress(dbProg *dynarisc.Program, blob []byte, mode Mode) ([]byte, error) {
	blocks := []dbcoder.SeekBlock{{CompLen: len(blob)}} // a standalone archive is one block
	if dbcoder.IsSeekable(blob) {
		var err error
		if blocks, err = dbcoder.SeekTable(blob); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRestore, err)
		}
	}
	var out []byte
	for _, b := range blocks {
		part, err := runDBDecode(dbProg, blob[b.CompOff:b.CompOff+b.CompLen], mode)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrRestore, err)
		}
		out = append(out, part...)
	}
	// The archived decoder skips the trailing CRC; check its output
	// against the length and checksum in the archive header — a mismatch
	// is a restoration failure, never data to hand back.
	if err := verifyDBDecodeOutput(blob, out); err != nil {
		return nil, err
	}
	return out, nil
}

// verifyDBDecodeOutput validates the emulated decompressor's output
// against the archive header. Factored out for the regression test: an
// output that differs from the archived stream's record must surface as
// ErrRestore, not be silently returned.
func verifyDBDecodeOutput(blob, out []byte) error {
	if err := dbcoder.Verify(blob, out); err != nil {
		return fmt.Errorf("%w: emulated DBDecode output: %w", ErrRestore, err)
	}
	return nil
}

// scanScratch is one restore worker's reusable state for the fused
// scan+decode stage: the media scan buffers (the full-resolution frame
// images the scanner simulation renders through), the decoder scratch,
// and the emulated modes' machine state. The decoder scratch serves both
// sides of the mode switch: the native decode threads it through
// mocoder.DecodeWith, and the emulated modes through mocoder.RectifyWith,
// which reuses its frame-detection buffers and caches its own tap table.
// Each worker id owns exactly one goroutine for a run (see forEachFrame),
// so the scratch is reused serially without locks — a steady-state
// native frame decode allocates only its payload and stats, an emulated
// frame's rectification allocates nothing, and the scan stage is down to
// a handful of small per-frame allocations (the distortion RNG and the
// blur/warp lookup tables) instead of two or three full-resolution
// images.
type scanScratch struct {
	scan media.ScanScratch
	dec  mocoder.DecodeScratch
	emu  emuScratch
}

// emuScratch is one worker's reusable emulator state for the emulated
// restore modes: the rectified image handed to the archived decoder, the
// DynaRisc reference CPU (RestoreDynaRisc), the VeRisc-hosted runner
// (RestoreNested) and the input framing buffer. A frame decode allocates
// its payload and nothing else: the rectified image and the
// multi-megaword machine image are reused from frame to frame.
type emuScratch struct {
	rect   *raster.Gray
	cpu    *dynarisc.CPU
	nested *nested.Runner
	in     []uint16
}

// decodeFrameEmulated runs the archived MODecode program on a scan,
// reusing the worker's decoder scratch, emulator and buffers.
func decodeFrameEmulated(sc *scanScratch, prog *dynarisc.Program, scan *raster.Gray, l emblem.Layout, mode Mode) ([]byte, emblem.Header, error) {
	s := &sc.emu
	// Host-side image preprocessing per the Bootstrap (§3.3 step 1):
	// deskew and rescale the scan onto the nominal grid before handing
	// the flat pixel array to the archived decoder. The Bootstrap fixes
	// the rescale target at 3 pixels per module (module centres land on
	// whole pixels), which also keeps every profile's frame inside
	// DynaRisc's 24-bit address range.
	rl := l
	if rl.PxPerModule > 3 {
		rl.PxPerModule = 3
	}
	scan, err := mocoder.RectifyWith(&sc.dec, s.rect, scan, rl)
	if err != nil {
		return nil, emblem.Header{}, err
	}
	s.rect = scan

	// Input framing per the Bootstrap: [W, H, dataW, dataH, pixels...],
	// assembled into the worker's reusable buffer.
	in := append(s.in[:0], uint16(scan.W), uint16(scan.H), uint16(l.DataW), uint16(l.DataH))
	in = dynarisc.AppendInWords(in, scan.Pix)
	s.in = in

	var outBytes []byte
	switch mode {
	case RestoreDynaRisc:
		if s.cpu == nil {
			s.cpu = dynarisc.NewCPU(dynprog.MOMemWords(scan))
		} else {
			s.cpu.Reset()
			s.cpu.EnsureMem(dynprog.MOMemWords(scan))
		}
		cpu := s.cpu
		cpu.MaxSteps = 60_000_000_000
		if err := cpu.LoadProgram(prog.Org, prog.Words); err != nil {
			return nil, emblem.Header{}, err
		}
		cpu.In = in
		if err := cpu.Run(); err != nil {
			return nil, emblem.Header{}, err
		}
		outBytes = cpu.OutBytes()
	case RestoreNested:
		if s.nested == nil {
			s.nested = nested.NewRunner()
		}
		var err error
		outBytes, err = s.nested.RunAppendBytes(nil, prog, in, dynprog.MOMemWords(scan), 0)
		if err != nil {
			return nil, emblem.Header{}, err
		}
	default:
		return nil, emblem.Header{}, fmt.Errorf("core: bad emulated mode %v", mode)
	}
	if len(outBytes) == 0 {
		return nil, emblem.Header{}, errors.New("core: MODecode produced no output (damaged frame)")
	}

	// MODecode emits the 22-byte voted header, then the payload.
	if len(outBytes) < emblem.HeaderSize {
		return nil, emblem.Header{}, errors.New("core: emulated payload too short")
	}
	hdr, err := emblem.ParseHeader(outBytes[:emblem.HeaderSize])
	if err != nil {
		return nil, emblem.Header{}, err
	}
	return outBytes[emblem.HeaderSize:], hdr, nil
}

// runDBDecode executes the archived DBDecode program on the compressed
// stream under the selected emulation level.
func runDBDecode(prog *dynarisc.Program, blob []byte, mode Mode) ([]byte, error) {
	rawLen, err := dbcoder.RawLen(blob)
	if err != nil {
		return nil, err
	}
	memWords := dynprog.DBOutBuf + rawLen + 4096
	switch mode {
	case RestoreDynaRisc:
		cpu := dynarisc.NewCPU(memWords)
		cpu.MaxSteps = 60_000_000_000
		if err := cpu.LoadProgram(prog.Org, prog.Words); err != nil {
			return nil, err
		}
		cpu.SetInBytes(blob)
		cpu.ReserveOut(rawLen)
		if err := cpu.Run(); err != nil {
			return nil, err
		}
		return cpu.OutBytes(), nil
	case RestoreNested:
		return nested.NewRunner().RunBytesAppendBytes(
			make([]byte, 0, rawLen), prog, blob, memWords, 0)
	default:
		return nil, fmt.Errorf("core: bad emulated mode %v", mode)
	}
}
