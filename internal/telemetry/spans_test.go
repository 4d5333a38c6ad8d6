package telemetry

import (
	"testing"

	"gpgpunoc/internal/packet"
)

func reqPacket(id uint64, src, dst int) *packet.Packet {
	return &packet.Packet{ID: id, Type: packet.ReadRequest, Src: src, Dst: dst,
		Flits: packet.Length(packet.ReadRequest)}
}

func TestNewSpansRejectsBadRates(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.1, 2} {
		if _, err := NewSpans(1, rate); err == nil {
			t.Errorf("rate %v: want error, got nil", rate)
		}
	}
	for _, rate := range []float64{0, 0.5, 1} {
		if _, err := NewSpans(1, rate); err != nil {
			t.Errorf("rate %v: %v", rate, err)
		}
	}
}

func TestSamplingDeterministicAcrossCollectors(t *testing.T) {
	a, _ := NewSpans(42, 0.3)
	b, _ := NewSpans(42, 0.3)
	picksA, picksB := 0, 0
	for id := uint64(1); id <= 2000; id++ {
		if a.sampled(id) {
			picksA++
		}
		if b.sampled(id) {
			picksB++
		}
		if a.sampled(id) != b.sampled(id) {
			t.Fatalf("id %d: same (seed, rate) disagreed", id)
		}
	}
	if picksA != picksB {
		t.Fatalf("pick counts diverged: %d vs %d", picksA, picksB)
	}
	// The hash should land near the rate: 0.3 ± a loose band over 2000 ids.
	if picksA < 450 || picksA > 750 {
		t.Fatalf("sampled %d of 2000 at rate 0.3, outside the plausible band", picksA)
	}
	// A different seed selects a different set.
	c, _ := NewSpans(43, 0.3)
	same := 0
	for id := uint64(1); id <= 2000; id++ {
		if a.sampled(id) == c.sampled(id) {
			same++
		}
	}
	if same == 2000 {
		t.Fatal("seed change did not alter the sampled set")
	}
}

func TestSamplingRateExtremes(t *testing.T) {
	all, _ := NewSpans(7, 1)
	none, _ := NewSpans(7, 0)
	for id := uint64(0); id < 500; id++ {
		if !all.sampled(id) {
			t.Fatalf("rate 1 skipped id %d", id)
		}
		if none.sampled(id) {
			t.Fatalf("rate 0 sampled id %d", id)
		}
	}
}

func TestOfferSamplesOnlyRequests(t *testing.T) {
	s, _ := NewSpans(1, 1)
	req := reqPacket(10, 0, 56)
	s.Offer(req)
	if !req.Sampled || s.NumTraces() != 1 {
		t.Fatalf("request at rate 1 not traced: sampled=%v traces=%d", req.Sampled, s.NumTraces())
	}
	rep := &packet.Packet{ID: 11, Type: packet.ReadReply, Src: 56, Dst: 0}
	s.Offer(rep)
	if rep.Sampled || s.NumTraces() != 1 {
		t.Fatalf("reply offered directly must not be traced: sampled=%v traces=%d", rep.Sampled, s.NumTraces())
	}
	// Re-offering the same packet must not duplicate the trace.
	s.Offer(req)
	if s.NumTraces() != 1 {
		t.Fatalf("re-offer duplicated the trace: %d", s.NumTraces())
	}
}

func TestStallAggregation(t *testing.T) {
	s, _ := NewSpans(1, 1)
	p := reqPacket(3, 0, 8)
	s.Offer(p)
	for c := int64(10); c < 15; c++ {
		s.Stall(p, 4, StallCredit, c)
	}
	s.Stall(p, 4, StallVCAlloc, 15) // cause change breaks the run
	s.Stall(p, 5, StallVCAlloc, 16) // node change breaks the run
	tr := s.Traces()[0]
	var stalls []Event
	for _, e := range tr.Events {
		if e.Kind == EvStall {
			stalls = append(stalls, e)
		}
	}
	if len(stalls) != 3 {
		t.Fatalf("got %d stall events, want 3 (aggregated runs): %+v", len(stalls), stalls)
	}
	if stalls[0].N != 5 || stalls[0].Cause != StallCredit || stalls[0].Cycle != 10 {
		t.Fatalf("first run = %+v, want 5 credit cycles from 10", stalls[0])
	}
	if stalls[1].N != 1 || stalls[2].N != 1 {
		t.Fatalf("broken runs should each charge 1 cycle: %+v", stalls[1:])
	}
}

func TestLinkReplyAndTransactions(t *testing.T) {
	s, _ := NewSpans(1, 1)
	req := reqPacket(20, 3, 56)
	req.CreatedAt = 100
	s.Offer(req)
	s.Injected(req, 0, 110)
	s.Ejected(req, 150)

	rep := &packet.Packet{ID: 20 | 1<<63, Type: packet.ReadReply, Src: 56, Dst: 3}
	s.LinkReply(req, rep, 150)
	if !rep.Sampled {
		t.Fatal("LinkReply must mark the reply sampled")
	}
	s.Injected(rep, 1, 400)
	s.Ejected(rep, 440)

	xs := s.Transactions()
	if len(xs) != 1 {
		t.Fatalf("got %d transactions, want 1", len(xs))
	}
	x := xs[0]
	if !x.Complete || !x.Read {
		t.Fatalf("transaction not complete read: %+v", x)
	}
	want := [4]int64{10, 40, 250, 40} // srcqueue, reqnet, mcservice, replynet
	if x.Segments != want {
		t.Fatalf("segments %v, want %v", x.Segments, want)
	}
	if x.Total() != 340 {
		t.Fatalf("total %d, want 340", x.Total())
	}
	if x.Rep.Trace != x.Req.ID {
		t.Fatalf("reply trace %d not linked to request ID %d", x.Rep.Trace, x.Req.ID)
	}
}

func TestLinkReplyUnsampledRequestIsNoop(t *testing.T) {
	s, _ := NewSpans(1, 0)
	req := reqPacket(5, 0, 56)
	s.Offer(req) // rate 0: not sampled
	rep := &packet.Packet{ID: 5 | 1<<63, Type: packet.ReadReply, Src: 56, Dst: 0}
	s.LinkReply(req, rep, 10)
	if rep.Sampled || s.NumTraces() != 0 {
		t.Fatalf("reply of unsampled request traced: sampled=%v traces=%d", rep.Sampled, s.NumTraces())
	}
}

// buildTracedPair populates a collector with one full request/reply journey.
func buildTracedPair(t *testing.T) *Spans {
	t.Helper()
	s, _ := NewSpans(9, 1)
	req := reqPacket(1, 0, 56)
	s.Offer(req)
	s.Injected(req, 0, 2)
	s.VCGrant(req, 0, 8, 0, 2)
	s.Hop(req, 0, 8, 0, 4)
	s.Stall(req, 8, StallVCAlloc, 5)
	s.Hop(req, 8, 56, 0, 8)
	s.Ejected(req, 10)
	s.MCService(req, 56, false, 10)
	s.DRAMQueued(req, 56, 10)
	s.DRAMIssue(req, 56, 3, true, 12)
	s.DRAMDone(req, 56, 232)
	rep := &packet.Packet{ID: 1 | 1<<63, Type: packet.ReadReply, Src: 56, Dst: 0, Flits: packet.Length(packet.ReadReply)}
	s.LinkReply(req, rep, 232)
	s.Injected(rep, 0, 233)
	s.Ejected(rep, 250)
	return s
}
