package astro

import (
	"fmt"

	"sharedopt/internal/engine"
)

// Tracker executes halo-evolution queries over a universe, using
// materialized (pid, halo) views when they exist and re-clustering
// snapshots on the fly when they do not.
//
// Clustering a snapshot is deterministic, so the tracker computes each
// snapshot's assignment once and caches it — but it re-charges the full
// clustering cost to the meter on every query that needs it, modelling a
// query service where every query pays for the work it would do without
// the view. Materializing a view is what removes that recurring charge.
type Tracker struct {
	u       *Universe
	catalog *engine.Catalog
	// LinkLen is the friends-of-friends linking length.
	LinkLen float64
	// MinMembers is the minimum FoF group size that counts as a halo.
	MinMembers int
	// Parallelism is the worker count tracking queries opt into
	// (morsel-driven, see engine.Query.WithParallelism) and that halo
	// clustering uses for its candidate-pair phase (HaloFinder.
	// Parallelism). Values below 2 keep the serial paths; any value
	// produces identical rows, assignments and meter charges, so the
	// priced savings are unchanged.
	Parallelism int

	// finder is reused across snapshots so its grid, union-find, and
	// component scratch is allocated once per tracker, not once per
	// clustering.
	finder *HaloFinder
	cache  map[int]*cachedAssignment
}

type cachedAssignment struct {
	table *engine.Table
	// cost is the metered work of the clustering + table build, charged
	// again on every cache hit.
	cost engine.Meter
}

// NewTracker returns a tracker over the universe with the given FoF
// parameters.
func NewTracker(u *Universe, linkLen float64, minMembers int) *Tracker {
	return &Tracker{
		u:          u,
		catalog:    engine.NewCatalog(),
		LinkLen:    linkLen,
		MinMembers: minMembers,
		finder:     NewHaloFinder(linkLen, minMembers),
		cache:      make(map[int]*cachedAssignment),
	}
}

// ViewName returns the catalog name of a snapshot's assignment view.
func ViewName(snapshot int) string { return fmt.Sprintf("halo_assign_%02d", snapshot) }

// HasView reports whether the snapshot's assignment view is materialized.
func (tr *Tracker) HasView(snapshot int) bool {
	_, ok := tr.catalog.View(ViewName(snapshot))
	return ok
}

// MaterializeView builds and registers the (pid, halo) view of a
// snapshot, with a hash index on pid, charging the build to meter. It
// returns the view so callers can inspect its size and build cost.
func (tr *Tracker) MaterializeView(snapshot int, meter *engine.Meter) (*engine.MaterializedView, error) {
	if tr.HasView(snapshot) {
		return nil, fmt.Errorf("astro: view for snapshot %d already exists", snapshot)
	}
	tbl, err := tr.assignment(snapshot, meter)
	if err != nil {
		return nil, err
	}
	par := tr.Parallelism
	if par < 1 {
		par = 1
	}
	mv, err := engine.Materialize(ViewName(snapshot),
		engine.Scan(tbl, meter).WithParallelism(par), "pid", meter)
	if err != nil {
		return nil, err
	}
	if err := tr.catalog.AddView(mv); err != nil {
		return nil, err
	}
	return mv, nil
}

// DropView removes a snapshot's view (e.g. when its subscription lapses).
func (tr *Tracker) DropView(snapshot int) { tr.catalog.DropView(ViewName(snapshot)) }

// assignment returns the snapshot's (pid, halo) table, charging meter for
// the clustering work — either the recurring cost of computing it fresh
// (re-charged on cache hits), or nothing beyond lookups if the
// materialized view exists.
func (tr *Tracker) assignment(snapshot int, meter *engine.Meter) (*engine.Table, error) {
	if mv, ok := tr.catalog.View(ViewName(snapshot)); ok {
		return mv.Data, nil
	}
	if hit, ok := tr.cache[snapshot]; ok {
		if meter != nil {
			meter.Add(&hit.cost)
		}
		return hit.table, nil
	}
	tbl, err := tr.u.Snapshot(snapshot)
	if err != nil {
		return nil, err
	}
	var cost engine.Meter
	tr.finder.LinkLen, tr.finder.MinMembers = tr.LinkLen, tr.MinMembers
	// Clustering honors the tracker's worker count; parallel finds
	// produce identical assignments and identical meter charges, so the
	// cached cost (re-billed on every hit) is unaffected.
	tr.finder.Parallelism = tr.Parallelism
	assign, err := tr.finder.Find(tbl, &cost)
	if err != nil {
		return nil, err
	}
	at := AssignmentTable(ViewName(snapshot)+"_tmp", assign)
	cost.RowsBuilt += int64(at.Len())
	tr.cache[snapshot] = &cachedAssignment{table: at, cost: cost}
	if meter != nil {
		meter.Add(&cost)
	}
	return at, nil
}

// assignmentIndexed returns the assignment plus a pid index when a
// materialized view provides one for free; otherwise the index is nil and
// joins fall back to building a hash table per query.
func (tr *Tracker) assignmentIndexed(snapshot int, meter *engine.Meter) (*engine.Table, *engine.HashIndex, error) {
	if mv, ok := tr.catalog.View(ViewName(snapshot)); ok {
		return mv.Data, mv.Index, nil
	}
	tbl, err := tr.assignment(snapshot, meter)
	return tbl, nil, err
}

// Progenitor finds the halo in snapshot prev contributing the most
// particles to halo g of snapshot cur: it selects g's particles from
// cur's assignment, joins them with prev's assignment on pid, groups by
// prev halo and takes the top count. It returns false if g shares no
// particles with any halo of prev.
func (tr *Tracker) Progenitor(cur int, g int32, prev int, meter *engine.Meter) (int32, bool, error) {
	curTbl, err := tr.assignment(cur, meter)
	if err != nil {
		return 0, false, err
	}
	prevTbl, prevIdx, err := tr.assignmentIndexed(prev, meter)
	if err != nil {
		return 0, false, err
	}
	par := tr.Parallelism
	if par < 1 {
		par = 1
	}
	// The probe side is projected to (pid), so after the join the prev
	// side's halo column keeps its bare name.
	q := engine.Scan(curTbl, meter).WithParallelism(par).
		FilterIntEq("halo", int64(g)).Project("pid")
	if prevIdx != nil {
		q = q.IndexJoin(prevIdx, "pid")
	} else {
		q = q.HashJoin(engine.Scan(prevTbl, meter).WithParallelism(par), "pid", "pid")
	}
	// Top1 materializes only the winning group and charges it as one
	// emitted row.
	row, ok, err := q.GroupCount("halo").Top1("count")
	if err != nil {
		return 0, false, err
	}
	if !ok {
		return 0, false, nil
	}
	return int32(row[0].Int), true, nil
}

// Chain traces halo g backward through the given 1-based snapshot
// numbers (descending, starting with the snapshot containing g). It
// returns one halo per snapshot, stopping early if a link has no
// progenitor.
func (tr *Tracker) Chain(g int32, snapshots []int, meter *engine.Meter) ([]int32, error) {
	if len(snapshots) == 0 {
		return nil, fmt.Errorf("astro: empty snapshot chain")
	}
	chain := []int32{g}
	cur := g
	for i := 0; i+1 < len(snapshots); i++ {
		next, ok, err := tr.Progenitor(snapshots[i], cur, snapshots[i+1], meter)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		chain = append(chain, next)
		cur = next
	}
	return chain, nil
}
