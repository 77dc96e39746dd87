//go:build !race

package transport

import "testing"

// The race runtime allocates on its own, so the pin is excluded from race
// builds.

// TestTCPRoundTripAllocs pins the framed TCP path's steady state: the write
// buffer, the read header and the receive pool's boxes are all reused, so a
// 64-byte frame echoed over loopback costs at most 2 allocations for both
// directions together.
func TestTCPRoundTripAllocs(t *testing.T) {
	client, server, _ := countedLoopback(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := server.Recv()
			if err != nil {
				return
			}
			err = server.Send(m)
			RecyclePayload(m.Payload)
			if err != nil {
				return
			}
		}
	}()
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(500, func() {
		if err := client.Send(Message{Type: 3, Payload: payload}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, err := client.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		RecyclePayload(m.Payload)
	})
	client.Close()
	<-done
	if allocs > 2 {
		t.Errorf("loopback round trip allocates %.1f, want <= 2", allocs)
	}
}

// TestPipeRoundTripAllocs pins the payload pool's closed loop on a pipe: the
// sender draws its frame buffer with GetPayload, the pipe hands that very
// buffer to the receiver, and the receiver's RecyclePayload feeds the next
// draw — buffer and box both — so a steady exchange allocates nothing.
// Before encoders drew from the pool nothing on a pipe did, and every
// recycled frame cost a box for a pool no one drained.
func TestPipeRoundTripAllocs(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := b.Recv()
			if err != nil {
				return
			}
			n := len(m.Payload)
			RecyclePayload(m.Payload)
			if b.Send(Message{Type: m.Type, Payload: GetPayload(n)}) != nil {
				return
			}
		}
	}()
	allocs := testing.AllocsPerRun(500, func() {
		if err := a.Send(Message{Type: 3, Payload: GetPayload(64)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
		m, err := a.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		RecyclePayload(m.Payload)
	})
	a.Close()
	<-done
	if allocs != 0 {
		t.Errorf("pooled pipe round trip allocates %.1f objects, want 0", allocs)
	}
}
