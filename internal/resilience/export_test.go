package resilience

// The tests that check the tier against internal/tiercheck live in the
// external package resilience_test, because tiercheck imports this
// package. These are the unexported names they reach.
var (
	NewService        = newService
	ShardConfigRecord = shardConfigRecord
	AdditiveBidRecord = additiveBidRecord
	RecordBoundaries  = recordBoundaries
)

// SwapLink replaces shard i's transport on s with link, returning the
// one it replaced.
func SwapLink(s *ShardedService, i int, link ShardTransport) ShardTransport {
	old := s.shards[i].link
	s.shards[i].link = link
	return old
}
