package dynprog

import (
	"math/rand"
	"strings"
	"testing"

	"microlonys/dynarisc"
	"microlonys/internal/catalog"
	"microlonys/internal/emblem"
	"microlonys/internal/mocoder"
	"microlonys/internal/nested"
	"microlonys/media"
	"microlonys/raster"
)

// benchLayout is the benchmark's bench profile: 120×90 modules at 3 px.
var benchLayout = emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3}

// Recorded MODecode budgets. Lower them when the program gets cheaper;
// raising one needs a reason.
const (
	// moBudgetSteps is the exact step count on budgetFrame (7 066 287
	// with the reference hot loops).
	moBudgetSteps = 2_558_151
	// moBudgetWords caps the program size at the reference program's
	// 4842 words (modecode_ref_test.go).
	moBudgetWords = 4842
)

// budgetFrame renders a full bench-layout frame from a fixed seed, with
// dust specks on the data field so the Reed-Solomon decoder corrects
// bytes. Rendering and damage are integer-only, so the frame, and the
// step count on it, are the same on every host.
func budgetFrame(t testing.TB) (*raster.Gray, []byte) {
	payload := make([]byte, mocoder.Capacity(benchLayout))
	rand.New(rand.NewSource(13)).Read(payload)
	img, err := mocoder.Encode(payload, emblem.Header{Kind: emblem.KindData, Total: 1}, benchLayout)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 4; i++ {
		x := 40 + rng.Intn(img.W-80)
		y := 40 + rng.Intn(img.H-80)
		img.FillRect(x, y, x+2, y+2, byte(rng.Intn(2)*255))
	}
	return img, payload
}

// trimLevel names the optional catalog sections that survive Marshal at
// the layout's frame capacity.
func trimLevel(t *testing.T, c *catalog.Catalog) string {
	t.Helper()
	b, err := c.Marshal(mocoder.Capacity(c.Layout))
	if err != nil {
		return "unfit"
	}
	p, err := catalog.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	if p.Instructions != "" {
		kept = append(kept, "instructions")
	}
	if p.Sheets != nil {
		kept = append(kept, "sheets")
	}
	if p.Groups != nil {
		kept = append(kept, "groups")
	}
	if p.Replica != nil {
		kept = append(kept, "replica")
	}
	return strings.Join(kept, "+")
}

// TestMODecodeBudget is a deterministic regression gate on the archived
// decoder's cost: the exact step count on a fixed bench-layout frame, the
// program size, and the catalog trim level each layout reaches with the
// program's compressed replica (the replica's size does not track the
// word count, so the test pins what a salvaging user gets, not bytes).
func TestMODecodeBudget(t *testing.T) {
	p, err := MODecode()
	if err != nil {
		t.Fatal(err)
	}
	img, payload := budgetFrame(t)
	c := dynarisc.NewCPU(MOMemWords(img))
	c.MaxSteps = 4_000_000_000
	if err := c.LoadProgram(p.Org, p.Words); err != nil {
		t.Fatal(err)
	}
	c.In = MOInput(img, benchLayout)
	if err := c.Run(); err != nil {
		t.Fatalf("MODecode run: %v", err)
	}
	if out := c.OutBytes(); len(out) < emblem.HeaderSize || string(out[emblem.HeaderSize:]) != string(payload) {
		t.Fatal("budget frame did not decode to its payload")
	}
	if c.Steps > moBudgetSteps {
		t.Errorf("MODecode took %d steps on the budget frame, budget %d", c.Steps, moBudgetSteps)
	}
	if len(p.Words) > moBudgetWords {
		t.Errorf("MODecode is %d words, budget %d", len(p.Words), moBudgetWords)
	}
	t.Logf("budget frame: %d steps, program %d words", c.Steps, len(p.Words))

	emu, err := nested.Program()
	if err != nil {
		t.Fatal(err)
	}
	replica := catalog.EncodeEssentials(emu, p)
	t.Logf("bootstrap replica: %d bytes", len(replica))
	const full = "instructions+sheets+groups+replica"
	// The trim levels the 4842-word program reached, for every built-in
	// profile and the benchmark's two layouts, on a one-sheet volume of
	// one 17+3 group and on a 35-sheet volume of one group per sheet (the
	// bulk benchmark's shape).
	for _, tc := range []struct {
		profile       media.Profile
		single, multi string
	}{
		{media.Paper(), full, full},
		{media.Microfilm(), full, full},
		{media.CinemaFilm(), full, full},
		{media.Tiny(), "sheets+groups", ""},
		{media.Profile{Name: "bench", Layout: benchLayout}, "sheets+groups", ""},
		{media.Profile{Name: "p9-bench", Layout: emblem.Layout{DataW: 160, DataH: 120, PxPerModule: 3}},
			"instructions+sheets+groups", "sheets+groups"},
	} {
		for _, sheets := range []int{1, 35} {
			cat := &catalog.Catalog{
				ArchiveID: 1, SheetCount: sheets, TotalFrames: 21 * sheets, TotalGroups: sheets,
				GroupData: 17, GroupParity: 3, Layout: tc.profile.Layout, ProfileName: tc.profile.Name,
				Compress: true, Instructions: catalog.Instructions(), Replica: replica,
			}
			for s := 0; s < sheets; s++ {
				cat.Sheets = append(cat.Sheets, catalog.SheetRange{StartFrame: 21 * s, Frames: 21, StartGroup: s, Groups: 1})
				cat.Groups = append(cat.Groups, catalog.GroupSum{Kind: emblem.KindData, Data: 17, Parity: 3})
			}
			want := tc.single
			if sheets > 1 {
				want = tc.multi
			}
			if got := trimLevel(t, cat); got != want {
				t.Errorf("%s, %d sheets: catalog keeps %q, want %q", tc.profile.Name, sheets, got, want)
			}
		}
	}
}

// BenchmarkMODecodeFrame runs MODecode through one reused CPU on a
// bench-layout frame written and scanned through the benchmark's bench
// profile (rotation, blur, noise, dust) and rectified to 3 px/module,
// as the emulated restore prepares it. It reports the steps a frame
// takes and the interpreter's time per step.
func BenchmarkMODecodeFrame(b *testing.B) {
	p, err := MODecode()
	if err != nil {
		b.Fatal(err)
	}
	img, payload := budgetFrame(b)
	m := media.New(media.Profile{
		Name: "bench", FrameW: img.W, FrameH: img.H, ScanW: img.W, ScanH: img.H,
		Layout:  benchLayout,
		Scanner: media.Distortions{RotationDeg: 0.1, BlurRadius: 1, Noise: 2, DustSpecks: 2},
	})
	if err := m.Write([]*raster.Gray{img}); err != nil {
		b.Fatal(err)
	}
	scan, err := m.ScanFrame(0)
	if err != nil {
		b.Fatal(err)
	}
	rect, err := mocoder.Rectify(scan, benchLayout)
	if err != nil {
		b.Fatal(err)
	}
	in := MOInput(rect, benchLayout)
	c := dynarisc.NewCPU(MOMemWords(rect))
	c.MaxSteps = 4_000_000_000
	var steps uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		if err := c.LoadProgram(p.Org, p.Words); err != nil {
			b.Fatal(err)
		}
		c.In = in
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
		steps += c.Steps
	}
	b.StopTimer()
	if out := c.OutBytes(); len(out) < emblem.HeaderSize || string(out[emblem.HeaderSize:]) != string(payload) {
		b.Fatal("scanned frame did not decode to its payload")
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}
