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

// ValidatorHeld returns how many curves and departure marks h's validator
// holds.
func ValidatorHeld(h *ShardHost) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.v.Held()
}

// Gate reports whether shard i of s is settling and how many
// submissions wait at its gate.
func Gate(s *ShardedService, i int) (settling bool, gated int) {
	sh := s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.settling, sh.gated
}
