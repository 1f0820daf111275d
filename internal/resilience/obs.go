package resilience

// The observability contract of the durable tier. Counting is always
// on: each shard's outcome counters are the tier's one ledger, which
// ShardStats reads. Export is opt-in: pass an *obs.Registry in
// ShardedConfig.Obs (to a fresh or a recovered tier) and the tier
// registers the metrics below in it; leave it nil and each shard keeps
// its counters to itself while every other hook is a nil-receiver no-op
// (see internal/obs). The metrics are bookkeeping only — they never
// change admission decisions, settlement order, or a single journal
// byte (property-tested in obs_test.go).
//
// Metric names, by emitting layer (the operator-facing table with units
// and alert guidance is docs/metrics.md):
//
//	shard (each partition of a ShardedService; <i> is the shard index):
//	  shard<i>.accepted / .rejected / .overloaded / .read_only /
//	  .unavailable / .settled / .wedged     the outcome counters
//	                                        ShardStats reads
//	  shard<i>.batch_highwater              peak between-slots batch length
//	  shard<i>.journal_write_ns             per-group journal write latency
//	                                        (the fsync latency on a FileLog)
//	  shard<i>.journal_group_records        records per journal write
//
//	tier (the ShardedService aggregate):
//	  tier.accepted / .rejected / .overloaded / .read_only /
//	  .unavailable / .settled / .wedged     sums of the per-shard counters,
//	                                        derived in each snapshot
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
	"bytes"
	"fmt"
	"io"

	"sharedopt/internal/obs"
)

// shardMetrics is one shard's metric set. Its outcome counters move only
// under the shard's lock, so reading them there gives one consistent
// ShardCounters.
type shardMetrics struct {
	accepted    *obs.Counter
	rejected    *obs.Counter
	overloaded  *obs.Counter
	readOnly    *obs.Counter
	unavailable *obs.Counter
	settled     *obs.Counter
	wedged      *obs.Counter
	batchHigh   *obs.MaxGauge // nil unless exported
}

// newShardMetrics registers shard i's metrics in reg. With reg nil the
// outcome counters are the shard's own, because they are its accounting
// either way; only the gauge is dropped.
func newShardMetrics(reg *obs.Registry, i int) shardMetrics {
	if reg == nil {
		c := new([7]obs.Counter)
		return shardMetrics{accepted: &c[0], rejected: &c[1], overloaded: &c[2], readOnly: &c[3],
			unavailable: &c[4], settled: &c[5], wedged: &c[6]}
	}
	prefix := fmt.Sprintf("shard%d.", i)
	return shardMetrics{
		accepted:    reg.Counter(prefix + "accepted"),
		rejected:    reg.Counter(prefix + "rejected"),
		overloaded:  reg.Counter(prefix + "overloaded"),
		readOnly:    reg.Counter(prefix + "read_only"),
		unavailable: reg.Counter(prefix + "unavailable"),
		settled:     reg.Counter(prefix + "settled"),
		wedged:      reg.Counter(prefix + "wedged"),
		batchHigh:   reg.MaxGauge(prefix + "batch_highwater"),
	}
}

// tierMetrics is the ShardedService-level metric set; nil metrics when
// the tier exports nothing.
type tierMetrics struct {
	advances  *obs.Counter
	advanceNs *obs.Histogram
}

// newTierMetrics registers the tier metrics for a tier of n shards in
// reg: tier.<class> as a sum of the n shard counters, and the
// settlement metrics. With reg nil there is nothing to register.
func newTierMetrics(reg *obs.Registry, n int) tierMetrics {
	if reg == nil {
		return tierMetrics{}
	}
	for _, c := range []string{"accepted", "rejected", "overloaded", "read_only", "unavailable", "settled", "wedged"} {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fmt.Sprintf("shard%d.%s", i, c)
		}
		reg.Sum("tier."+c, parts...)
	}
	return tierMetrics{
		advances:  reg.Counter("tier.advances"),
		advanceNs: reg.Histogram("tier.advance_ns", nil),
	}
}

// groupBounds are shard<i>.journal_group_records' buckets: powers of two
// up to 1024 records per write.
var groupBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// groupCounter observes how many records each journal write carries into
// h: one per newline, the only one a framed record holds.
type groupCounter struct {
	w io.Writer
	h *obs.Histogram
}

func (g groupCounter) Write(p []byte) (int, error) {
	g.h.Observe(int64(bytes.Count(p, []byte{'\n'})))
	return g.w.Write(p)
}
