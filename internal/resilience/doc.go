// Package resilience is the durable pricing tier around the online
// mechanisms: a checksummed bid journal, a sharded tier with per-shard
// journals and partial-failure degradation, deterministic crash
// recovery, and retry with bounded admission. Its tests inject seeded
// journal faults into all of it.
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
// A journal is a line-oriented append-only text log. Each record is one
// line, its fields separated by single spaces, integers in decimal and
// money in exact integer micro-dollars:
//
//	<crc32-hex8> shard <game> <horizon> <shard> <shards> <id>:<cost> …
//	<crc32-hex8> a[<e>] <user> <opt> <start> <value> …
//	<crc32-hex8> s[<e>] <user> <opt>,<opt>,… <start> <value> …
//	<crc32-hex8> adv
//	<crc32-hex8> close
//
// A bid line opens with its kind's initial (a for an additive bid, s
// for a substitutive one) and holds one value per slot from its start,
// so its end slot is start + values − 1 and is not written. The values
// share one power of ten: e is the fewest trailing decimal zeros of a
// nonzero value (0 when none is nonzero), written right after the
// initial unless it is 0, and the values are written divided by 10^e.
// The exponent costs at most two bytes and saves at least e on each
// nonzero value, so it never lengthens a line. A bid in whole cents that
// is not all zero is written at a4 or above, so a bid of $0.17, $0.11,
// $0.04 and $0.04 over slots 4–7 is
//
//	<crc32-hex8> a4 6 9 4 17 11 4 4
//
// rather than "a 6 9 4 170000 110000 40000 40000". An empty
// substitute set is "-". A record's sequence number (strictly
// 1, 2, 3, …) is its line's position and is not written: the CRC-32
// (IEEE) covers the sequence number as 8 big-endian bytes followed by
// the payload, so a line verifies only at its own position. Each record
// has exactly one line — the decoder refuses any payload that does not
// re-encode to the same bytes — and a record the line cannot carry (a
// bid whose values do not fill its interval among them) is refused
// before it is journaled. A shard journal opens with one "shard" config
// record (game, horizon, shard index and count, catalog) followed by
// that shard's accepted bids and settlement markers ("adv", "close").
// OpenFileLog refuses a journal in a line format of earlier versions —
// JSON lines, or text bid lines that open with "abid" or "sbid" and
// write the end slot — with ErrJournalFormat and leaves the file as it
// is: a complete line whose checksum verifies but whose payload does not
// decode is an intact record, not a torn write. Records are written by
// group commit: each is enqueued in sequence order under the journal
// lock, and a caller waiting for an unwritten record that finds no write
// in progress writes every pending record as a single Write to the log
// target (MemLog in memory, FileLog with one fsync per group on disk).
// No call is acknowledged before its group is written, and a crash
// tears at most the final group; ReadJournal verifies newline framing,
// checksum, and sequence continuity, and cleanly discards everything
// from the first damaged record on. The config record is enqueued when
// the shard opens and rides its first group, so a shard that dies
// before any group leaves an empty journal (a creation crash).
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
// payload (the line without its checksum) and maps it to the record's
// sequence in an insert-only internal/appendmap table, whose index is
// hashed under a per-shard seed and whose hits compare the whole
// digest; that payload is encoded once per fresh bid and also becomes
// the journal line. The router tells a duplicate acknowledgment from a
// fresh one by the sequence it carries, and digests a record only when
// a transport failure leaves it in doubt. No shard runs the mechanism.
// Slot settlement makes one adv marker durable per shard, then folds
// every shard's batch into the single derived settlement service in
// shard-index order, bids within a shard in journal order, and runs the
// mechanism there, once per slot.
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
// typed failures with single-probe half-open recovery. The transport
// package's FuzzNetChaos drives the tier over TCP under seeded network
// faults (drops, duplicates, reorders, resets) and asserts faulted
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
// Fault injection is test code: the injectors live in this package's
// faultinject_test.go and none ships in the tier. A faulting writer
// wraps any journal target and executes one seeded fault plan — a
// clean write error, a short write with a lying nil error, or a
// mid-group crash that tears the tail and kills all later writes. For
// the sharded tier each shard draws its own plan, and a crash group
// links the per-shard writers into one simulated process: any member
// crash (or a group-wide write budget) stops every journal at the same
// instant, tearing at most one group on one shard — the cross-shard
// interleaving crash recovery must reconcile. The fuzz target
// FuzzShardedChaos drives randomized workloads through the tier at
// N ∈ {1, 2, 4, 8} under these plans, one round per seed, recovers,
// and asserts on every schedule the invariant set internal/tiercheck
// owns: accounting, durability, deterministic recovery, invoicing and
// cost recovery. A go test -fuzz soak saves failing seeds under
// testdata/fuzz/, where plain go test replays them.
package resilience
