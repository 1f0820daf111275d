// Package transport puts a real network under the resilience tier's
// ShardTransport boundary: ShardServer serves one ShardHost over TCP and
// ShardClient implements resilience.ShardTransport against it, so a
// ShardedService can front shards living in other processes with the
// same settlement bytes as the in-process loopback.
//
// # Wire format
//
// One TCP connection carries concurrent calls. Each frame is a 4-byte
// big-endian length followed by one JSON document (request or response),
// capped at 1 MiB. Requests carry a client-assigned ID, an op name
// (submit, advance, close, stats), the op's arguments, and the caller's
// remaining context budget in microseconds; the server re-arms that
// deadline on its side, which is how context deadlines propagate across
// the boundary. Responses echo the ID — the server answers out of order
// (each request is handled on its own goroutine and replies are
// group-committed to the socket), and the client routes replies back to
// waiters by ID, dropping strays (late, duplicated, or reordered
// replies) on the floor.
//
// # Failure semantics
//
// The client maps every transport-level failure — dial errors, broken
// connections, deadline expiry, a reply that never comes — to
// resilience.ErrShardUnavailable: the call reached no decision and the
// operation's fate is unknown. Typed shard verdicts cross the wire as
// response codes: "broken" reconstructs resilience.ErrJournalBroken
// (fail-stop, the router wedges the shard), "unavailable" re-wraps a
// server-side deadline expiry so the client retries it, and "reject"
// carries a definitive mechanism rejection as text. Unavailable calls
// are retried with the tier's seeded Backoff jitter; retries are blind
// and safe because submits dedup by record digest and settlement
// markers are window-idempotent.
//
// # Circuit breaking
//
// Breaker wraps the per-shard call path: Failures consecutive
// unavailable outcomes trip it open, every call inside the cooldown
// fails fast with ErrShardUnavailable (no network traffic), and after
// the cooldown a single half-open probe decides — success (or any
// definitive verdict) closes the breaker, another transient failure
// reopens it for a fresh cooldown. This keeps a dead shard from holding
// every submitter hostage for a full deadline per call, while the
// router's settlement protocol parks the affected window until the
// shard answers again.
//
// # Fault injection
//
// The client carries no fault hook. The package's tests wrap the
// client's connections through ClientConfig.Dial in a seeded injector
// (netfault_test.go), the network analogue of resilience's test-side
// journal faults: per-write added latency, silent drops, duplicated
// writes, reordered writes, and connection resets. The fuzz target
// FuzzNetChaos drives a full tier over TCP under those faults plus
// shard process kills and asserts settlement stays byte-identical to
// the fault-free run.
package transport
