package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"microlonys"
	"microlonys/internal/emblem"
	"microlonys/internal/jobs"
	"microlonys/internal/sqldump"
	"microlonys/media"
	"microlonys/tpch"
)

// Every input the benchmark hands the program is derived from the
// workload seed: the TPC-H data, the frame damage, the sheet shuffle and
// the query sequence each draw from their own sub-seed, so changing
// --seed changes all of them and one stream's draws never shift another's.

// subSeed derives the seed of one named input stream from the workload seed.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

// genDump renders a seeded TPC-H SQL dump within 5% of target bytes.
func genDump(seed int64, target int) []byte {
	_, db := tpch.FitScaleFactor(target, subSeed(seed, "data"), sqldump.Dump)
	return sqldump.Dump(db)
}

// genExactDump is a seeded dump cut to exactly target bytes, for the
// workloads that treat the dump as opaque bytes: every seed then archives
// the same amount, and the frame count — which sets an op's cost — moves
// only with how well the seed's data compresses.
func genExactDump(seed int64, target int) []byte {
	d := genDump(seed, target*106/100)
	return d[:min(len(d), target)]
}

// benchProfile is the mid-size scanned-paper profile of the repository's
// Go benchmarks (bench_test.go): 120×90 modules at 3 px with rotation,
// blur, noise and dust.
func benchProfile() media.Profile {
	return scannedProfile("bench", emblem.Layout{DataW: 120, DataH: 90, PxPerModule: 3})
}

// queryProfile is BenchmarkP9Range's profile: 160×120 modules at 3 px,
// large enough that the index emblem carries a fine restart-block table.
func queryProfile() media.Profile {
	return scannedProfile("p9-bench", emblem.Layout{DataW: 160, DataH: 120, PxPerModule: 3})
}

func scannedProfile(name string, l emblem.Layout) media.Profile {
	return media.Profile{
		Name:   name,
		FrameW: l.ImageW(), FrameH: l.ImageH(),
		ScanW: l.ImageW(), ScanH: l.ImageH(),
		Layout: l,
		Scanner: media.Distortions{
			RotationDeg: 0.1, BlurRadius: 1, Noise: 2, DustSpecks: 2,
		},
	}
}

// frameRef addresses one frame of a volume.
type frameRef struct{ Sheet, Index int }

// damagePlan picks one frame to destroy on every sheet, outside the
// reserved catalog/index slots. Each sheet holds at most one 17+3 group
// at the bulk workload's SheetFrames, so one lost frame per sheet stays
// within parity and the outer code runs on every group.
func damagePlan(seed int64, v *media.Volume) ([]frameRef, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "damage")))
	reserved := v.ReservedSlots()
	plan := make([]frameRef, 0, v.Sheets())
	for s := 0; s < v.Sheets(); s++ {
		m, err := v.Sheet(s)
		if err != nil {
			return nil, err
		}
		if m.FrameCount() <= reserved {
			return nil, fmt.Errorf("sheet %d holds no group frames", s)
		}
		plan = append(plan, frameRef{s, reserved + rng.Intn(m.FrameCount()-reserved)})
	}
	return plan, nil
}

// applyDamage destroys the planned frames.
func applyDamage(v *media.Volume, plan []frameRef) error {
	for _, f := range plan {
		if err := v.Destroy(f.Sheet, f.Index); err != nil {
			return err
		}
	}
	return nil
}

// bagPlan is a salvage bag: the sheets in shuffled order, with one sheet
// presented twice (the second copy inserted at DupAt).
type bagPlan struct {
	Order []int
	Dup   int
	DupAt int
}

func makeBagPlan(seed int64, sheets int) bagPlan {
	rng := rand.New(rand.NewSource(subSeed(seed, "shuffle")))
	return bagPlan{Order: rng.Perm(sheets), Dup: rng.Intn(sheets), DupAt: rng.Intn(sheets + 1)}
}

// bag assembles the plan's sheet bag from a volume; the duplicate is an
// independent clone.
func (p bagPlan) bag(v *media.Volume) ([]*media.Medium, error) {
	out := make([]*media.Medium, 0, len(p.Order)+1)
	for _, s := range p.Order {
		m, err := v.Sheet(s)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	dup, err := v.Sheet(p.Dup)
	if err != nil {
		return nil, err
	}
	out = append(out, nil)
	copy(out[p.DupAt+1:], out[p.DupAt:])
	out[p.DupAt] = dup.Clone()
	return out, nil
}

// query is one job of the query-service mix.
type query struct {
	Kind   jobs.Kind
	Off    int
	Length int
	Table  string
}

// queryRangeBytes is the size of every range query.
const queryRangeBytes = 4096

// Query-service blocks: the job mix is drawn in shuffled blocks of
// queryBlock jobs — 24 4 KB ranges, 8 table queries, 2 index listings
// (71/24/6%) — and a run issues whole blocks, so every seed runs the
// same mix and a run's cost does not hinge on how many large tables one
// seed happens to draw. Three blocks are the 100 jobs a p90 with ten
// samples beyond it needs.
const (
	queryBlock       = 34
	queryBlockRanges = 24
	queryBlockTables = 8
)

// querySequence draws n jobs (a multiple of queryBlock) of the
// query-service mix: ranges at uniform offsets, table queries walking
// seeded permutations of the index's table list (each TPC-H table once
// per block), index listings.
func querySequence(seed int64, n, rawLen int, tables []string) []query {
	rng := rand.New(rand.NewSource(subSeed(seed, "queries")))
	kinds := make([]jobs.Kind, 0, queryBlock)
	for i := 0; i < queryBlock; i++ {
		switch {
		case i < queryBlockRanges:
			kinds = append(kinds, jobs.KindRange)
		case i < queryBlockRanges+queryBlockTables:
			kinds = append(kinds, jobs.KindTable)
		default:
			kinds = append(kinds, jobs.KindListIndex)
		}
	}
	var perm []int
	qs := make([]query, 0, n)
	for len(qs) < n {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			q := query{Kind: k}
			switch k {
			case jobs.KindRange:
				q.Off, q.Length = rng.Intn(rawLen-queryRangeBytes+1), queryRangeBytes
			case jobs.KindTable:
				if len(perm) == 0 {
					perm = rng.Perm(len(tables))
				}
				q.Table, perm = tables[perm[0]], perm[1:]
			}
			qs = append(qs, q)
		}
	}
	return qs[:n]
}

// bulkOptions is the bulk-roundtrip archive configuration: catalog on,
// 21-frame sheets (one 17+3 group plus the catalog slot).
func bulkOptions(workers int) microlonys.Options {
	o := microlonys.DefaultOptions(benchProfile())
	o.Catalog = true
	o.SheetFrames = 21
	o.Workers = workers
	return o
}

// emulatedOptions archives the emulated-restore input onto one sheet.
func emulatedOptions(workers int) microlonys.Options {
	o := microlonys.DefaultOptions(benchProfile())
	o.Workers = workers
	return o
}

// queryOptions is BenchmarkP9Range's indexed volume: catalog and index
// slots, 22-frame sheets, seekable DBCoder at match depth 1.
func queryOptions(workers int) microlonys.Options {
	o := microlonys.DefaultOptions(queryProfile())
	o.CompressDepth = 1
	o.SheetFrames = 22
	o.Catalog = true
	o.Index = true
	o.Workers = workers
	return o
}
