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
