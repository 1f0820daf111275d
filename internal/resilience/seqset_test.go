package resilience

import "testing"

// TestSeqSet: members at and around the 64-bit word boundaries are found,
// sequences that were never added are not, and a stray huge sequence
// costs one word.
func TestSeqSet(t *testing.T) {
	s := make(seqSet)
	members := []uint64{0, 63, 64, 127, 128}
	for _, seq := range members {
		s.add(seq)
	}
	for _, seq := range members {
		if !s.has(seq) {
			t.Errorf("member %d not found", seq)
		}
	}
	for _, seq := range []uint64{1, 31, 62, 65, 126, 129, 192} {
		if s.has(seq) {
			t.Errorf("non-member %d found", seq)
		}
	}
	if len(s) != 3 {
		t.Errorf("%d words hold sequences 0..128, want 3", len(s))
	}
	s.add(1 << 62)
	if !s.has(1<<62) || s.has(1<<62+1) || len(s) != 4 {
		t.Errorf("adding 1<<62 left %d words (want 4), has(1<<62) = %v, has(1<<62+1) = %v",
			len(s), s.has(1<<62), s.has(1<<62+1))
	}
}
