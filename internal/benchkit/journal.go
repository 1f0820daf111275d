package benchkit

import (
	"testing"

	"sharedopt/internal/core"
	"sharedopt/internal/resilience"
)

// journalReplayBids is the number of bid records in the journal image
// ReadJournalSeason parses.
const journalReplayBids = 2000

// seasonBidRecords returns the bid records of a season-shaped additive
// game in journal order: every arrival's bid followed by its revision
// if any (a fifth of them), 1–48 slots of 1–20 cents each.
func seasonBidRecords() []resilience.Record {
	_, arrivals := seasonGame(44, seasonOpts, seasonSlots, false)
	var recs []resilience.Record
	for _, a := range arrivals {
		for _, bid := range []*core.OnlineBid{&a.bid, a.rev} {
			if bid != nil {
				recs = append(recs, resilience.Record{Kind: resilience.KindAdditiveBid, User: bid.User, Opt: a.opt,
					Start: bid.Start, End: bid.End, Values: bid.Values})
			}
		}
	}
	return recs
}

// countingDiscard is an io.Writer that drops its bytes and counts them.
type countingDiscard struct{ n int64 }

func (w *countingDiscard) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// JournalAppendSeason returns the benchmark body for one
// Journal.Append of a season-shaped bid record to a writer that
// discards its bytes: the encoding, framing and group write of the ack
// path without the fsync. It reports the journal bytes per record
// ("B/record").
func JournalAppendSeason() func(b *testing.B) {
	return func(b *testing.B) {
		recs := seasonBidRecords()
		var w countingDiscard
		j := resilience.NewJournal(&w)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := j.Append(recs[i%len(recs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(w.n)/float64(b.N), "B/record")
	}
}

// ReadJournalSeason returns the benchmark body for one ReadJournal of
// a journal image holding the first journalReplayBids season-shaped bid
// records: the checksum, parse and re-encode check recovery runs on
// every line. It reports the image's bytes per record ("B/record").
func ReadJournalSeason() func(b *testing.B) {
	return func(b *testing.B) {
		var log resilience.MemLog
		j := resilience.NewJournal(&log)
		for _, rec := range seasonBidRecords()[:journalReplayBids] {
			if err := j.Append(rec); err != nil {
				b.Fatal(err)
			}
		}
		image := log.Bytes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if recs, _, torn := resilience.ReadJournal(image); torn || len(recs) != journalReplayBids {
				b.Fatalf("read %d records, torn=%v", len(recs), torn)
			}
		}
		b.ReportMetric(float64(len(image))/journalReplayBids, "B/record")
	}
}
