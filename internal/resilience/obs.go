package resilience

// The observability contract of the durable tier. Instrumentation is
// opt-in: pass an *obs.Registry in ShardedConfig.Obs (to a fresh or a
// recovered tier) and the tier registers and maintains the metrics
// below; leave it nil and every hook is a nil-receiver no-op (see
// internal/obs). The
// metrics are bookkeeping only — they never change admission decisions,
// settlement order, or a single journal byte (property-tested in
// obs_test.go), so an instrumented tier is byte-identical to a bare one.
//
// Metric names, by emitting layer (the operator-facing table with units
// and alert guidance is docs/metrics.md):
//
//	shard (each partition of a ShardedService; <i> is the shard index):
//	  shard<i>.accepted / .rejected / .overloaded / .read_only /
//	  .unavailable / .settled / .wedged     counters mirroring ShardCounters
//	  shard<i>.batch_highwater              peak between-slots batch length
//	  shard<i>.journal_write_ns             per-record journal write latency
//	                                        (the fsync latency on a FileLog)
//
//	tier (the ShardedService aggregate):
//	  tier.accepted / .rejected / .overloaded / .read_only /
//	  .unavailable / .settled / .wedged     sums of the per-shard counters
//	  tier.advances                         successful slot settlements
//	  tier.advance_ns                       AdvanceSlot wall latency histogram
//	                                        (drain + markers + fold + settle)
//
//	transport (the TCP shard client, internal/resilience/transport,
//	when ClientConfig.Obs is set; <i> is the shard index):
//	  shard<i>.net_requests                 requests put on the wire
//	  shard<i>.net_failures                 calls that ended unavailable
//	  shard<i>.net_retries                  attempts after the first
//	  shard<i>.net_redials                  reconnects after a broken conn
//	  shard<i>.net_stray_replies            replies with no waiting call
//	                                        (late, duplicated, reordered)
//	  shard<i>.net_breaker_open             circuit-breaker trips to open
//	  shard<i>.net_rtt_ns                   per-call round-trip latency

import (
	"fmt"

	"sharedopt/internal/obs"
)

// classMetrics is one accounting class set — the seven outcome counters
// a shard and the tier aggregate both maintain. The zero value (all nil)
// is the disabled form.
type classMetrics struct {
	accepted    *obs.Counter
	rejected    *obs.Counter
	overloaded  *obs.Counter
	readOnly    *obs.Counter
	unavailable *obs.Counter
	settled     *obs.Counter
	wedged      *obs.Counter
}

// newClassMetrics registers the seven outcome counters under prefix
// ("shard3" or "tier"). A nil registry yields the disabled (all-nil)
// set.
func newClassMetrics(reg *obs.Registry, prefix string) classMetrics {
	return classMetrics{
		accepted:    reg.Counter(prefix + ".accepted"),
		rejected:    reg.Counter(prefix + ".rejected"),
		overloaded:  reg.Counter(prefix + ".overloaded"),
		readOnly:    reg.Counter(prefix + ".read_only"),
		unavailable: reg.Counter(prefix + ".unavailable"),
		settled:     reg.Counter(prefix + ".settled"),
		wedged:      reg.Counter(prefix + ".wedged"),
	}
}

// shardMetrics is one shard's full metric set.
type shardMetrics struct {
	classMetrics
	batchHigh *obs.MaxGauge
}

// newShardMetrics registers shard i's metrics.
func newShardMetrics(reg *obs.Registry, i int) shardMetrics {
	prefix := fmt.Sprintf("shard%d", i)
	return shardMetrics{
		classMetrics: newClassMetrics(reg, prefix),
		batchHigh:    reg.MaxGauge(prefix + ".batch_highwater"),
	}
}

// tierMetrics is the ShardedService-level aggregate metric set.
type tierMetrics struct {
	classMetrics
	advances  *obs.Counter
	advanceNs *obs.Histogram
}

// newTierMetrics registers the tier aggregates.
func newTierMetrics(reg *obs.Registry) tierMetrics {
	return tierMetrics{
		classMetrics: newClassMetrics(reg, "tier"),
		advances:     reg.Counter("tier.advances"),
		advanceNs:    reg.Histogram("tier.advance_ns", nil),
	}
}
