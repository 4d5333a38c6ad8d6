package packet

import "testing"

func TestTypeClass(t *testing.T) {
	cases := map[Type]Class{
		ReadRequest:  Request,
		WriteRequest: Request,
		ReadReply:    Reply,
		WriteReply:   Reply,
	}
	for typ, want := range cases {
		if got := typ.Class(); got != want {
			t.Errorf("%s class = %s, want %s", typ, got, want)
		}
	}
}

func TestClassOther(t *testing.T) {
	if Request.Other() != Reply || Reply.Other() != Request {
		t.Error("Other is not an involution over the two classes")
	}
}

func TestReplyMapping(t *testing.T) {
	if ReadRequest.Reply() != ReadReply {
		t.Error("read request must yield read reply")
	}
	if WriteRequest.Reply() != WriteReply {
		t.Error("write request must yield write reply")
	}
}

func TestReplyPanicsOnReply(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reply() on a reply type did not panic")
		}
	}()
	ReadReply.Reply()
}

func TestLengths(t *testing.T) {
	// Section 3.1.1: short = read request & write reply, long = the rest.
	if Length(ReadRequest) != ShortFlits || Length(WriteReply) != ShortFlits {
		t.Error("short packets must be 1 flit")
	}
	if Length(ReadReply) != LongFlits || Length(WriteRequest) != LongFlits {
		t.Error("long packets must be 5 flits")
	}
}

func TestIsRead(t *testing.T) {
	if !ReadRequest.IsRead() || !ReadReply.IsRead() {
		t.Error("read types must report IsRead")
	}
	if WriteRequest.IsRead() || WriteReply.IsRead() {
		t.Error("write types must not report IsRead")
	}
}

func TestFlitize(t *testing.T) {
	p := &Packet{ID: 1, Type: ReadReply, Flits: Length(ReadReply)}
	fs := Flitize(p)
	if len(fs) != 5 {
		t.Fatalf("flit count = %d, want 5", len(fs))
	}
	if !fs[0].Head || fs[0].Tail {
		t.Error("first flit must be head only")
	}
	if fs[4].Head || !fs[4].Tail {
		t.Error("last flit must be tail only")
	}
	for i, f := range fs {
		if f.Seq != i || f.Pkt != p {
			t.Errorf("flit %d mis-framed: %+v", i, f)
		}
		if i > 0 && i < 4 && (f.Head || f.Tail) {
			t.Errorf("body flit %d marked head/tail", i)
		}
	}
}

func TestFlitizeSingleFlit(t *testing.T) {
	p := &Packet{ID: 2, Type: ReadRequest, Flits: 1}
	fs := Flitize(p)
	if len(fs) != 1 || !fs[0].Head || !fs[0].Tail {
		t.Fatalf("single-flit packet must be head and tail: %+v", fs)
	}
}

func TestReplyRequestFlitRatio(t *testing.T) {
	// The asymmetry motivating the paper: with 75% reads, reply flit volume
	// is twice the request volume (Figure 2's geomean).
	const reads, writes = 3, 1
	req := reads*Length(ReadRequest) + writes*Length(WriteRequest)
	rep := reads*Length(ReadReply) + writes*Length(WriteReply)
	if 2*req != rep {
		t.Errorf("reply:request flit ratio = %d:%d, want 2:1", rep, req)
	}
}

// TestFIFOKeepsItsBackingArray: a queue that never quite empties — the
// outbox of a backpressured SM or MC — must hold FIFO order and stop
// growing once warm; re-slicing from the front instead reallocates on
// every refill.
func TestFIFOKeepsItsBackingArray(t *testing.T) {
	var q FIFO
	next, want := uint64(0), uint64(1)
	push := func(n int) {
		for i := 0; i < n; i++ {
			next++
			q.Push(&Packet{ID: next})
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			if got := q.Front().ID; got != want {
				t.Fatalf("popped packet %d, want %d", got, want)
			}
			q.Pop()
			want++
		}
	}
	push(5)
	for i := 0; i < 64; i++ {
		pop(3)
		push(3)
	}
	warm := q.Cap()
	allocs := testing.AllocsPerRun(1000, func() {
		q.Pop()
		q.Push(nil)
	})
	if allocs != 0 || q.Cap() != warm {
		t.Errorf("steady-state pop+push allocates %.1f times, capacity %d -> %d", allocs, warm, q.Cap())
	}
	if q.Len() != 5 {
		t.Errorf("Len = %d, want 5", q.Len())
	}
}
