// Package astro reproduces the paper's motivating use-case (Sections 2
// and 7.2): astronomers tracing the evolution of halos across the
// snapshots of an N-body universe simulation, sped up by per-snapshot
// materialized (particleID, haloID) views.
//
// The real datasets (4.8 GB per snapshot in the paper, 200 GB+ for
// state-of-the-art runs) are not available here, so the package builds
// the closest synthetic equivalent that exercises the same code paths: a
// configurable universe generator with drifting halos and migrating
// particles, a friends-of-friends halo finder, and the halo-tracking
// query workload running on internal/engine with and without the views.
// The per-view savings the pricing experiments consume come out of the
// engine's cost meter rather than being hard-coded, and a calibration
// test checks they reproduce the shape of the paper's measured numbers.
//
// # Map from paper concepts to code
//
//   - The universe simulation (Section 2) — Config/Generate
//     (universe.go) build one engine.Table of particles per snapshot.
//   - Friends-of-friends clustering — HaloFinder (halofind.go), a
//     grid-bucketed union-find with an optional deterministic parallel
//     candidate-pair phase (Parallelism).
//   - The two paper queries Q1/Q2 (Section 2) — Tracker.Progenitor and
//     Tracker.Chain (track.go); Tracker.RunWorkload (workload.go) runs
//     one astronomer's full query mix, charging every row touched to an
//     engine.Meter.
//   - The materialized views being priced — Tracker.MaterializeView /
//     DropView; a view removes the recurring re-clustering charge.
//   - The measured value table (Section 7.2's 18/7/3/16/9/4 cents) —
//     MeasureSavings (savings.go) measures each astronomer's workload
//     with no views and with each view alone, and DeriveSavingsCents
//     scales the unit savings to cents anchored at the paper's 18¢
//     final-snapshot saving.
//
// # Concurrency
//
// MeasureSavings fans the users × (1 + snapshots) workload grid out
// over a deterministic worker pool (MeasureSavingsParallel): one
// private Tracker — and so one HaloFinder and one assignment cache —
// per worker, results reduced in user/snapshot order. A run's metered
// work is a pure function of its parameters, so the report is
// byte-identical to the serial loop at any worker count.
package astro
