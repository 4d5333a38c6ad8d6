package noc

import (
	"strings"
	"testing"
	"testing/quick"

	"gpgpunoc/internal/packet"
)

func flit(seq int) packet.Flit {
	return packet.Flit{Pkt: &packet.Packet{ID: uint64(seq)}, Seq: seq}
}

func TestRingFIFO(t *testing.T) {
	r := newRing(4)
	if r.len() != 0 || r.free() != 4 || r.cap() != 4 {
		t.Fatalf("fresh ring: len=%d free=%d cap=%d", r.len(), r.free(), r.cap())
	}
	for i := 0; i < 4; i++ {
		r.push(flit(i), int64(i))
	}
	if r.free() != 0 {
		t.Fatalf("free = %d after filling", r.free())
	}
	for i := 0; i < 4; i++ {
		bf := r.pop()
		if bf.flit.Seq != i || bf.arrived != int64(i) {
			t.Fatalf("pop %d: got seq %d arrived %d", i, bf.flit.Seq, bf.arrived)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	r := newRing(3)
	seq := 0
	for round := 0; round < 10; round++ {
		r.push(flit(seq), 0)
		r.push(flit(seq+1), 0)
		if r.pop().flit.Seq != seq {
			t.Fatal("order broken across wraparound")
		}
		if r.pop().flit.Seq != seq+1 {
			t.Fatal("order broken across wraparound")
		}
		seq += 2
	}
}

func TestRingOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	r := newRing(1)
	r.push(flit(0), 0)
	r.push(flit(1), 0)
}

func TestRingUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop on empty did not panic")
		}
	}()
	r := newRing(1)
	r.pop()
}

// TestRingFIFOProperty: any interleaving of pushes and pops preserves FIFO
// order and occupancy accounting.
func TestRingFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		r := newRing(8)
		next, expect := 0, 0
		for _, push := range ops {
			if push {
				if r.free() == 0 {
					continue
				}
				r.push(flit(next), 0)
				next++
			} else {
				if r.len() == 0 {
					continue
				}
				if r.pop().flit.Seq != expect {
					return false
				}
				expect++
			}
			if r.len()+r.free() != r.cap() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDumpBlockedOutput(t *testing.T) {
	n := newTestNet(t, "xy", "split")
	// No sinks: the packet reaches its destination and waits for ejection.
	n.Inject(mkPacket(1, packet.ReadRequest, 0, 3, 0))
	for i := 0; i < 50; i++ {
		n.Step()
	}
	var b stringsBuilder
	n.DumpBlocked(&b)
	if b.s == "" {
		t.Error("dump produced no output for a network holding flits")
	}

	// Who sleeps: fill node 0's queue behind the wedged packet until Inject
	// refuses. Its router's local VCs fill up and nothing pops them, so the
	// router goes idle and the queue ends up blocked and refused.
	for i, id := 0, uint64(2); i < 200; i++ {
		for ; n.Inject(mkPacket(id, packet.ReadReply, 0, 3, 0)); id++ {
		}
		n.Step()
	}
	b.s = ""
	n.DumpBlocked(&b)
	for _, want := range []string{
		"router (0,0) idle: ",
		"inject queue node 0: 16 flits queued blocked refused\n",
	} {
		if !strings.Contains(b.s, want) {
			t.Errorf("dump lacks %q:\n%s", want, b.s)
		}
	}
}

// stringsBuilder avoids importing strings in this file's hot loop tests.
type stringsBuilder struct{ s string }

func (b *stringsBuilder) Write(p []byte) (int, error) {
	b.s += string(p)
	return len(p), nil
}
