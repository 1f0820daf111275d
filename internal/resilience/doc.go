// Package resilience is the durable pricing tier around the online
// mechanisms: a checksummed bid journal, a sharded tier with per-shard
// journals and partial-failure degradation, deterministic crash
// recovery, retry with bounded admission, and seeded fault injection for
// testing all of it.
//
// The paper's guarantees — truthfulness and exact cost recovery — are
// economic statements about the set of accepted bids. A provider that
// loses accepted bids in a crash, or sheds them silently under load,
// breaks the mechanism even if it stays up. This package makes the
// accepted-bid set durable and the overload behavior explicit.
//
// There is one front door: ShardedService. At N = 1 it is the
// single-journal tier; at any N it prices exactly as one plain
// sharedopt.Service would.
//
// # Journal format
//
// A journal is a line-oriented append-only log. Each record is one line:
//
//	<crc32-ieee-hex8> <payload-json>\n
//
// The checksum covers the payload bytes. The payload is a Record: a
// sequence number (strictly 1, 2, 3, …), a kind, and the operation's
// arguments with all money in exact integer micro-dollars. A shard
// journal opens with one "shard" config record (kind, horizon, catalog,
// shard index and count) followed by that shard's accepted bids ("abid",
// "sbid") and settlement markers ("adv", "close"). Each record is issued
// as a single Write to the log target (MemLog in memory, FileLog with
// per-record fsync on disk), so a crash tears at most the final record;
// ReadJournal verifies newline framing, checksum, and sequence
// continuity, and cleanly discards everything from the first damaged
// record on.
//
// # Shards and settlement
//
// ShardedService partitions users across N shards. ShardFor routes each
// user to one shard by a fixed hash, so a user's bids — and any
// conflicting revisions — always meet the same journal. A shard
// (ShardHost) is a validator, a dedup table, and a journal: the
// core.Validator applies the online mechanisms' admission rules
// (retroactive bids, monotone revisions, departures, fixed substitute
// sets) to its users' declared curves, digest dedup makes a
// resubmission idempotent, and an admitted bid is journaled before it is
// acknowledged. Dedup keys on the SHA-256 of the record's canonical
// payload (Seq zeroed) and maps it to the record's sequence in an
// insert-only internal/appendmap table, whose index is hashed under a
// per-shard seed and whose hits compare the whole digest; that payload
// is marshaled once per fresh bid and also yields the journal line. The router tells a duplicate acknowledgment from a fresh one by
// the sequence it carries, and digests a record only when a transport
// failure leaves it in doubt. No shard runs the mechanism. Slot settlement makes one
// adv marker durable per shard, then folds every shard's batch into the
// single derived settlement service in shard-index order, bids within a
// shard in journal order, and runs the mechanism there, once per slot.
// Because the mechanisms price the per-window accepted-bid SET, invoices,
// revenue, surplus, and the implemented set are byte-identical to one
// plain Service at any N — property-tested at N ∈ {1, 2, 4, 8}.
//
// # Recovery invariants
//
// Mutations follow accept-then-journal with fail-stop semantics: a call
// returns nil only if the operation was admitted AND journaled; the
// first journal write failure wedges that shard (ErrShardWedged, its
// users read-only) so an unjournaled accept can never be followed by
// further acknowledged work on it, while every other shard keeps
// accepting. Only when every shard is wedged does the tier refuse to
// advance, with ErrJournalBroken. RecoverShardHost rebuilds one shard by
// replaying its journal into a fresh validator and dedup table;
// RecoverShardedService rebuilds the tier from the N surviving journals
// (any subset torn or truncated): each shard's accepted prefix replays
// independently, then the slot frontiers reconcile — the maximum durable
// frontier wins, shards behind it roll forward deterministically as their
// hosts re-journal the missing markers, and their stranded tail bids
// settle in exactly the window the live tier would have folded them
// into. Because every mechanism in internal/core is deterministic,
// recovery reproduces invoices, revenue, cost, and the implemented set
// byte-identically — property-tested by crashing at every record
// boundary and every cross-shard write, with and without torn tails.
// Double recovery of the same journals is byte-identical, wedged set
// included. A journal this code cannot have written (one user's bids
// split across shards, a foreign or hand-edited log) can hold bids the
// settlement game refuses; the fold wedges that shard with
// ErrPolicyDiverged instead of failing the tier.
//
// # Retry and idempotency contract
//
// Each shard's between-slots batch is bounded (ShardedConfig.MaxBatch); a
// submission arriving at a full batch is refused fast with the typed
// ErrOverloaded — never a silent drop — and ShardCounters carries the
// exact accounting. ErrOverloaded (and only it) is Retryable; Retry wraps
// an operation in capped exponential backoff. Blind retries are safe
// because submissions are idempotent: a resubmission equal to an
// accepted one in every field but the sequence returns success with the
// original sequence and journals nothing, so a client that lost the
// first acknowledgment cannot double-bid — also after the user's end
// slot, when the shard keeps only her bid's digest.
//
// # Network transport
//
// The router/shard seam is the ShardTransport interface: Submit,
// Advance, ClosePeriod, and Stats with context deadlines. ShardHost
// implements it in-process (the loopback the plain constructors use);
// the transport subpackage carries the same calls over a
// length-prefixed TCP protocol (ShardServer/ShardClient),
// and NewShardedServiceOver builds a tier on any mix of links after a
// Stats handshake verifies each link reaches the shard the router will
// treat it as. The seam's error contract is three-valued: an error
// wrapping ErrShardUnavailable means NO DECISION was reached (timeout,
// connection loss, breaker open) and the caller may retry blindly —
// submission idempotency via digest dedup makes a duplicated
// delivery journal exactly once, and the re-acknowledgment
// carries the original sequence number; an error wrapping
// ErrJournalBroken means the shard fail-stopped and the router wedges
// it; anything else is a definitive mechanism rejection. The client
// layers bounded seeded-jitter retries (RetryIf), a per-shard circuit
// breaker that converts a failing shard's timeout storms into fast
// typed failures with single-probe half-open recovery, and an optional
// seeded network-fault injector (drops, duplicates, reorders, resets)
// for chaos drills — cmd/pricer's -chaos-net mode asserts faulted TCP
// rounds settle byte-identical to fault-free loopback references. See
// the transport package documentation for the wire format.
//
// # Observability
//
// Counting is always on; export is opt-in. Each shard's outcome
// counters are the tier's one ledger, which ShardStats reads. Pass an
// *obs.Registry in ShardedConfig.Obs (to NewShardedService or
// RecoverShardedService) to export them, with tier.* sums derived in
// each snapshot, batch high-water marks, and latency histograms for
// journal writes and slot advances — lock-free and allocation-free on
// the hot path. Metrics are bookkeeping only: an exporting run produces
// byte-identical journals, invoices, and counters to a bare one
// (property-tested in obs_test.go). The metric name contract lives
// in obs.go and docs/metrics.md; cmd/pricer's -load mode drives the
// instrumented sharded tier to saturation and reports the knee.
//
// # Fault injection
//
// FaultWriter executes a FaultPlan — a clean write error, a short write
// with a lying nil error, or a mid-record crash that tears the tail and
// kills all later writes — against any journal target, and RandomPlan
// draws seeded schedules for sweeps. For the sharded tier,
// RandomShardPlans draws one independent plan per shard, and CrashGroup
// links the per-shard writers into one simulated process: any member
// crash (or a global write budget, KillAtWrite) stops every journal at
// the same instant, tearing at most one record on one shard — the
// cross-shard interleaving crash recovery must reconcile. cmd/pricer's
// chaos mode drives randomized workloads through the tier at N ∈
// {1, 2, 4, 8} under these plans, recovers, and asserts on every
// schedule the invariant set internal/tiercheck owns: accounting,
// durability, deterministic recovery, invoicing and cost recovery.
package resilience
