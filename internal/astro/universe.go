package astro

import (
	"fmt"
	"math"

	"sharedopt/internal/engine"
	"sharedopt/internal/stats"
)

// Config parameterizes a synthetic universe.
type Config struct {
	// Particles is the number of particles per snapshot.
	Particles int
	// Halos is the number of halos seeded at the first snapshot.
	Halos int
	// Snapshots is the number of time steps captured (27 in the paper's
	// workload).
	Snapshots int
	// BoxSize is the side length of the periodic simulation cube.
	BoxSize float64
	// HaloSigma is the standard deviation of particle offsets around
	// their halo center.
	HaloSigma float64
	// DriftSigma is the per-snapshot random drift of halo centers.
	DriftSigma float64
	// MigrationRate is the per-snapshot probability that a clustered
	// particle migrates to another halo (this is what makes "which halo
	// contributed the most particles" a non-trivial question).
	MigrationRate float64
	// BackgroundFrac is the fraction of particles left unclustered.
	BackgroundFrac float64
	// Seed makes generation reproducible.
	Seed uint64
}

// DefaultConfig returns a laptop-scale universe that still produces
// meaningful halo-evolution chains.
func DefaultConfig() Config {
	return Config{
		Particles:      4000,
		Halos:          12,
		Snapshots:      27,
		BoxSize:        100,
		HaloSigma:      1.0,
		DriftSigma:     0.8,
		MigrationRate:  0.04,
		BackgroundFrac: 0.15,
		Seed:           1,
	}
}

// Validate reports an error if the configuration is unusable.
func (c Config) Validate() error {
	switch {
	case c.Particles < 1:
		return fmt.Errorf("astro: %d particles", c.Particles)
	case c.Halos < 1:
		return fmt.Errorf("astro: %d halos", c.Halos)
	case c.Snapshots < 1:
		return fmt.Errorf("astro: %d snapshots", c.Snapshots)
	case c.BoxSize <= 0:
		return fmt.Errorf("astro: box size %v", c.BoxSize)
	case c.HaloSigma <= 0:
		return fmt.Errorf("astro: halo sigma %v", c.HaloSigma)
	case c.MigrationRate < 0 || c.MigrationRate > 1:
		return fmt.Errorf("astro: migration rate %v", c.MigrationRate)
	case c.BackgroundFrac < 0 || c.BackgroundFrac >= 1:
		return fmt.Errorf("astro: background fraction %v", c.BackgroundFrac)
	}
	return nil
}

// Universe is a generated simulation: one particle table per snapshot
// plus the generator's ground-truth halo membership (used to validate the
// halo finder, never by the queries themselves).
type Universe struct {
	Config
	// Tables[t] is snapshot t+1's particle table with schema
	// (pid int64, x, y, z float64).
	Tables []*engine.Table
	// TrueHalo[t][p] is particle p's generating halo at snapshot t+1,
	// or -1 for background particles.
	TrueHalo [][]int32
}

// ParticleSchema is the schema of every snapshot table.
var ParticleSchema = engine.Schema{
	{Name: "pid", Type: engine.Int64},
	{Name: "x", Type: engine.Float64},
	{Name: "y", Type: engine.Float64},
	{Name: "z", Type: engine.Float64},
}

// Generate builds a universe: halo centers drift across snapshots and a
// fraction of particles migrates between halos each step, so halos have
// genuine progenitor structure.
func Generate(cfg Config) (*Universe, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := stats.NewRNG(cfg.Seed)
	u := &Universe{Config: cfg}

	centers := make([][3]float64, cfg.Halos)
	for h := range centers {
		for d := 0; d < 3; d++ {
			centers[h][d] = r.Float64() * cfg.BoxSize
		}
	}
	// Initial membership: background particles first, the rest spread
	// over halos (halo h gets a random weight to vary sizes).
	membership := make([]int32, cfg.Particles)
	weights := make([]float64, cfg.Halos)
	var wsum float64
	for h := range weights {
		weights[h] = 0.5 + r.Float64()
		wsum += weights[h]
	}
	for p := range membership {
		if r.Float64() < cfg.BackgroundFrac {
			membership[p] = -1
			continue
		}
		pick := r.Float64() * wsum
		for h := range weights {
			pick -= weights[h]
			if pick <= 0 {
				membership[p] = int32(h)
				break
			}
		}
	}

	for t := 0; t < cfg.Snapshots; t++ {
		if t > 0 {
			// Drift halo centers and migrate particles.
			for h := range centers {
				for d := 0; d < 3; d++ {
					centers[h][d] = wrap(centers[h][d]+r.NormFloat64(0, cfg.DriftSigma), cfg.BoxSize)
				}
			}
			for p := range membership {
				if membership[p] >= 0 && r.Float64() < cfg.MigrationRate {
					membership[p] = int32(r.Intn(cfg.Halos))
				}
			}
		}
		tbl := engine.NewTable(SnapshotTableName(t+1), ParticleSchema)
		truth := make([]int32, cfg.Particles)
		for p := 0; p < cfg.Particles; p++ {
			var pos [3]float64
			if h := membership[p]; h >= 0 {
				for d := 0; d < 3; d++ {
					pos[d] = wrap(centers[h][d]+r.NormFloat64(0, cfg.HaloSigma), cfg.BoxSize)
				}
				truth[p] = h
			} else {
				for d := 0; d < 3; d++ {
					pos[d] = r.Float64() * cfg.BoxSize
				}
				truth[p] = -1
			}
			tbl.MustAppend(engine.Row{
				engine.I(int64(p)),
				engine.F(pos[0]), engine.F(pos[1]), engine.F(pos[2]),
			})
		}
		u.Tables = append(u.Tables, tbl)
		u.TrueHalo = append(u.TrueHalo, truth)
	}
	return u, nil
}

// SnapshotTableName returns the conventional table name of a snapshot
// (1-based).
func SnapshotTableName(snapshot int) string {
	return fmt.Sprintf("particles_%02d", snapshot)
}

// Snapshot returns the particle table of a 1-based snapshot number.
func (u *Universe) Snapshot(t int) (*engine.Table, error) {
	if t < 1 || t > len(u.Tables) {
		return nil, fmt.Errorf("astro: snapshot %d out of range [1,%d]", t, len(u.Tables))
	}
	return u.Tables[t-1], nil
}

func wrap(v, box float64) float64 {
	v = math.Mod(v, box)
	if v < 0 {
		v += box
	}
	return v
}
