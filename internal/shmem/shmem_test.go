package shmem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"hugeomp/internal/mem"
	"hugeomp/internal/pagetable"
	"hugeomp/internal/units"
)

func TestRegionMapping(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	r, err := NewRegion(phys, pt, 0x100000, 10*units.PageSize4K, units.Size4K, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains(0x100000) || !r.Contains(r.End()-1) || r.Contains(r.End()) {
		t.Error("Contains boundaries wrong")
	}
	if _, err := pt.Access(0x100000+4096*5, true); err != nil {
		t.Errorf("region page not writable: %v", err)
	}
}

func TestRegionLargePages(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	_, err := NewRegion(phys, pt, units.Addr(units.PageSize2M), 3*units.PageSize2M, units.Size2M, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Mapped2M() != 3 {
		t.Errorf("Mapped2M = %d, want 3", pt.Mapped2M())
	}
}

func TestRegionRoundsUp(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	r, err := NewRegion(phys, pt, 0, 100, units.Size4K, pagetable.ProtRW)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len != units.PageSize4K {
		t.Errorf("Len = %d, want one page", r.Len)
	}
}

func TestRegionMisalignedBase(t *testing.T) {
	phys := mem.New(16 * units.MB)
	pt := pagetable.New()
	if _, err := NewRegion(phys, pt, 0x1001, units.PageSize4K, units.Size4K, pagetable.ProtRW); err == nil {
		t.Error("misaligned base accepted")
	}
}

func TestChannelRoundTrip(t *testing.T) {
	c := NewChannel()
	if err := c.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, MaxMsgSize)
	n := c.Recv(buf)
	if string(buf[:n]) != "hello" {
		t.Errorf("got %q", buf[:n])
	}
}

func TestChannelBackpressureAt32(t *testing.T) {
	c := NewChannel()
	for i := 0; i < MaxInFlight; i++ {
		if err := c.TrySend([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.TrySend([]byte{99}); !errors.Is(err, ErrWouldBlock) {
		t.Errorf("33rd in-flight message: want ErrWouldBlock, got %v", err)
	}
	// Draining one slot admits one more.
	buf := make([]byte, 1)
	c.Recv(buf)
	if err := c.TrySend([]byte{99}); err != nil {
		t.Errorf("send after drain: %v", err)
	}
}

func TestChannelRejectsOversized(t *testing.T) {
	c := NewChannel()
	if err := c.TrySend(make([]byte, MaxMsgSize+1)); !errors.Is(err, ErrMsgTooBig) {
		t.Errorf("want ErrMsgTooBig, got %v", err)
	}
}

func TestChannelEmptyRecv(t *testing.T) {
	c := NewChannel()
	if _, ok := c.TryRecv(make([]byte, 8)); ok {
		t.Error("TryRecv on empty ring returned a message")
	}
}

// FIFO property: any sequence of messages is delivered in order and intact.
func TestChannelFIFOProperty(t *testing.T) {
	f := func(msgs [][]byte) bool {
		c := NewChannel()
		done := make(chan bool)
		go func() {
			buf := make([]byte, MaxMsgSize)
			for _, want := range msgs {
				if len(want) > MaxMsgSize {
					want = want[:MaxMsgSize]
				}
				n := c.Recv(buf)
				if !bytes.Equal(buf[:n], want) {
					done <- false
					return
				}
			}
			done <- true
		}()
		for _, m := range msgs {
			if len(m) > MaxMsgSize {
				m = m[:MaxMsgSize]
			}
			if err := c.Send(m); err != nil {
				return false
			}
		}
		return <-done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestChannelConcurrentStress(t *testing.T) {
	c := NewChannel()
	const total = 10000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			msg := fmt.Sprintf("m%06d", i)
			if err := c.Send([]byte(msg)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	buf := make([]byte, MaxMsgSize)
	for i := 0; i < total; i++ {
		n := c.Recv(buf)
		want := fmt.Sprintf("m%06d", i)
		if string(buf[:n]) != want {
			t.Fatalf("message %d: got %q want %q", i, buf[:n], want)
		}
	}
	wg.Wait()
}

func TestMeshPairwiseChannels(t *testing.T) {
	m := NewMesh(4)
	if m.n != 4 || len(m.ch) != 16 {
		t.Fatalf("mesh of 4: n = %d, %d channels", m.n, len(m.ch))
	}
	// Distinct channels per ordered pair.
	seen := map[*Channel]bool{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			ch := m.Chan(i, j)
			if seen[ch] {
				t.Fatalf("channel (%d,%d) aliases another pair", i, j)
			}
			seen[ch] = true
		}
	}
	// Traffic on (0,1) is invisible on (1,0).
	if err := m.Chan(0, 1).Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Chan(1, 0).TryRecv(make([]byte, 8)); ok {
		t.Error("reverse channel received forward traffic")
	}
	if n, ok := m.Chan(0, 1).TryRecv(make([]byte, 8)); !ok || n != 1 {
		t.Error("forward channel lost message")
	}
}
