package astro

import (
	"testing"

	"sharedopt/internal/engine"
)

// A single HaloFinder reused across every snapshot of a universe must
// produce assignments and meter counts identical to a fresh finder per
// snapshot: the retained grid, union-find, and component scratch is an
// optimization, never observable state.
func TestHaloFinderReuseMatchesFresh(t *testing.T) {
	cfg := smallConfig()
	cfg.Snapshots = 6
	u := generate(t, cfg)
	const link, minMembers = 2.0, 3

	reused := NewHaloFinder(link, minMembers)
	for snap, tbl := range u.Tables {
		var warmMeter, freshMeter engine.Meter
		warm, err := reused.Find(tbl, &warmMeter)
		if err != nil {
			t.Fatalf("snapshot %d: reused finder: %v", snap+1, err)
		}
		fresh, err := FindHalos(tbl, link, minMembers, &freshMeter)
		if err != nil {
			t.Fatalf("snapshot %d: fresh finder: %v", snap+1, err)
		}
		if warmMeter != freshMeter {
			t.Fatalf("snapshot %d: reused meter %+v, fresh meter %+v",
				snap+1, warmMeter, freshMeter)
		}
		if len(warm.Sizes) != len(fresh.Sizes) {
			t.Fatalf("snapshot %d: reused %d halos, fresh %d",
				snap+1, len(warm.Sizes), len(fresh.Sizes))
		}
		for h := range warm.Sizes {
			if warm.Sizes[h] != fresh.Sizes[h] {
				t.Fatalf("snapshot %d halo %d: size %d vs %d",
					snap+1, h, warm.Sizes[h], fresh.Sizes[h])
			}
		}
		for p := range warm.Halo {
			if warm.Halo[p] != fresh.Halo[p] {
				t.Fatalf("snapshot %d particle %d: halo %d vs %d",
					snap+1, p, warm.Halo[p], fresh.Halo[p])
			}
		}
	}
}

// A warm reused finder allocates only its returned Assignment: the grid
// arrays, union-find forest, and component scratch all persist inside
// the finder.
func TestHaloFinderWarmAllocBudget(t *testing.T) {
	cfg := smallConfig()
	u := generate(t, cfg)
	f := NewHaloFinder(2.0, 3)
	tbl := u.Tables[0]
	if _, err := f.Find(tbl, nil); err != nil { // warm up scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := f.Find(tbl, nil); err != nil {
			t.Fatal(err)
		}
	})
	// The Assignment (Halo slice, Sizes slice, struct) plus sort-closure
	// noise; far below one allocation per particle or cell.
	const budget = 8
	if allocs > budget {
		t.Errorf("warm Find allocated %.1f times per run, budget %d", allocs, budget)
	}
}

// Property: the parallel candidate-pair phase is observationally
// identical to serial clustering at every worker count — same per-particle
// halo labels, same halo sizes (and therefore the same numbering, which
// depends on exact union-find roots), and the same meter counts — across
// every snapshot of a universe. This is the determinism contract that
// keeps parallel clustering from perturbing any priced saving.
func TestHaloFinderParallelMatchesSerial(t *testing.T) {
	cfg := smallConfig()
	cfg.Snapshots = 5
	u := generate(t, cfg)
	const link, minMembers = 2.0, 3

	for snap, tbl := range u.Tables {
		var serialMeter engine.Meter
		serialFinder := NewHaloFinder(link, minMembers)
		want, err := serialFinder.Find(tbl, &serialMeter)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4, 8} {
			f := NewHaloFinder(link, minMembers)
			f.Parallelism = par
			var m engine.Meter
			got, err := f.Find(tbl, &m)
			if err != nil {
				t.Fatalf("snapshot %d par %d: %v", snap+1, par, err)
			}
			if m != serialMeter {
				t.Fatalf("snapshot %d par %d: meter %+v, serial %+v",
					snap+1, par, m, serialMeter)
			}
			if len(got.Sizes) != len(want.Sizes) {
				t.Fatalf("snapshot %d par %d: %d halos, serial %d",
					snap+1, par, len(got.Sizes), len(want.Sizes))
			}
			for h := range want.Sizes {
				if got.Sizes[h] != want.Sizes[h] {
					t.Fatalf("snapshot %d par %d halo %d: size %d, serial %d",
						snap+1, par, h, got.Sizes[h], want.Sizes[h])
				}
			}
			for p := range want.Halo {
				if got.Halo[p] != want.Halo[p] {
					t.Fatalf("snapshot %d par %d particle %d: halo %d, serial %d",
						snap+1, par, p, got.Halo[p], want.Halo[p])
				}
			}
		}
	}

	// A reused parallel finder must stay identical across snapshots too
	// (per-chunk edge scratch is retained and re-sliced).
	f := NewHaloFinder(link, minMembers)
	f.Parallelism = 4
	for snap, tbl := range u.Tables {
		var m, sm engine.Meter
		got, err := f.Find(tbl, &m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FindHalos(tbl, link, minMembers, &sm)
		if err != nil {
			t.Fatal(err)
		}
		if m != sm {
			t.Fatalf("reused snapshot %d: meter %+v, serial %+v", snap+1, m, sm)
		}
		for p := range want.Halo {
			if got.Halo[p] != want.Halo[p] {
				t.Fatalf("reused snapshot %d particle %d: halo %d, serial %d",
					snap+1, p, got.Halo[p], want.Halo[p])
			}
		}
	}
}

// The finder rejects snapshots whose cell grid would overflow the packed
// 21-bit-per-axis cell key (a bound the map-based grid did not have, at
// ~2 million cells per axis far beyond any physical snapshot).
func TestHaloFinderExtentOverflow(t *testing.T) {
	tbl := engine.NewTable("huge", ParticleSchema)
	tbl.MustAppend(engine.Row{engine.I(0), engine.F(0), engine.F(0), engine.F(0)})
	tbl.MustAppend(engine.Row{engine.I(1), engine.F(1e9), engine.F(0), engine.F(0)})
	if _, err := FindHalos(tbl, 1.0, 1, nil); err == nil {
		t.Fatal("expected cell-extent overflow error")
	}
	// Far apart but within the bound still works.
	ok := engine.NewTable("ok", ParticleSchema)
	ok.MustAppend(engine.Row{engine.I(0), engine.F(0), engine.F(0), engine.F(0)})
	ok.MustAppend(engine.Row{engine.I(1), engine.F(100_000), engine.F(0), engine.F(0)})
	if _, err := FindHalos(ok, 1.0, 1, nil); err != nil {
		t.Fatalf("in-bound extent rejected: %v", err)
	}
}
