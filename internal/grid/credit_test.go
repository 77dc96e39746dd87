package grid

import (
	"testing"
	"time"

	"uncheatgrid/internal/transport"
)

// TestCreditLedgerClampBounds pins the adaptive window's [floor, ceiling]
// band: every ledger starts at the floor, a hot drain rate grows the window
// no further than the ceiling, and an idle ledger decays back to the floor
// and never below it.
func TestCreditLedgerClampBounds(t *testing.T) {
	const ceiling = int64(1 << 20)
	led := newCreditLedger(ceiling)
	if led.win != minRouteCreditWindowBytes {
		t.Fatalf("initial window %d, want the %d floor", led.win, minRouteCreditWindowBytes)
	}
	if led.outstanding != led.win {
		t.Fatalf("initial outstanding %d, want the full %d window", led.outstanding, led.win)
	}

	// A ceiling below the floor pins the window to the ceiling.
	if small := newCreditLedger(4096); small.win != 4096 {
		t.Fatalf("sub-floor ceiling: window %d, want 4096", small.win)
	}

	// Hot route: a huge drain observed over a tiny interval targets a window
	// far beyond the ceiling; the clamp must hold it there.
	led.drain(1 << 30)
	led.lastRate = time.Now().Add(-time.Microsecond)
	led.resizeLocked()
	if led.win != ceiling {
		t.Fatalf("hot-route window %d, want clamped to the %d ceiling", led.win, ceiling)
	}

	// Idle route: repeated zero-drain observations decay the EWMA; the
	// window must settle on the floor, never below.
	for i := 0; i < 64; i++ {
		led.lastRate = time.Now().Add(-time.Hour)
		led.resizeLocked()
		if led.win < minRouteCreditWindowBytes {
			t.Fatalf("idle decay drove the window to %d, below the %d floor", led.win, minRouteCreditWindowBytes)
		}
	}
	if led.win != minRouteCreditWindowBytes {
		t.Fatalf("idle window %d, want decayed to the %d floor", led.win, minRouteCreditWindowBytes)
	}
}

// TestCreditLedgerGrantRestoresWindow pins the grant batching rule and the
// invariant every grant restores: outstanding + queued == win, so the
// sender can always fill the window and never more.
func TestCreditLedgerGrantRestoresWindow(t *testing.T) {
	led := newCreditLedger(1 << 20)
	// A deficit below half a window is batched, not granted.
	if !led.arrive(100) {
		t.Fatal("arrival within the window flagged as violation")
	}
	led.drain(100)
	if g := led.grantDue(0); g != 0 {
		t.Fatalf("sub-half-window deficit granted %d bytes early", g)
	}
	// The sender spends its whole balance and the consumer drains it all:
	// the grant must re-open the full window.
	led.arrive(led.outstanding)
	led.drain(led.win - 100)
	if g := led.grantDue(0); g <= 0 {
		t.Fatal("fully-drained sender got no grant")
	}
	if led.outstanding != led.win {
		t.Fatalf("after grant: outstanding %d != window %d with an empty queue", led.outstanding, led.win)
	}
	// With bytes still queued, the grant must stop short of the window.
	led.arrive(led.outstanding) // sender spends everything again
	led.drain(led.win - 1000)
	if g := led.grantDue(1000); g <= 0 {
		t.Fatal("mostly-drained sender got no grant")
	}
	if led.outstanding+1000 != led.win {
		t.Fatalf("grant broke outstanding(%d) + queued(1000) == win(%d)", led.outstanding, led.win)
	}
}

// TestHubRejectsZeroCreditGrant masquerades as a supervisor mux endpoint
// and sends the hub a zero-byte credit grant: the decoder classifies it as
// malformed, the hub charges the bytes to mux overhead, and the whole link
// is failed — grants that cannot make progress are a protocol violation,
// not a no-op.
func TestHubRejectsZeroCreditGrant(t *testing.T) {
	hub := NewBrokerHub()
	defer hub.Close()
	raw, hubUp := transport.Pipe(transport.WithBuffer(8), transport.WithRecvTimeout(5*time.Second))
	// Attach's handshake is synchronous; the buffered pipe lets the hello be
	// queued first.
	if err := sendHello(raw, helloMsg{Role: helloRoleMux, Worker: "fake-sup"}); err != nil {
		t.Fatalf("mux hello: %v", err)
	}
	if err := hub.Attach(hubUp); err != nil {
		t.Fatalf("Attach: %v", err)
	}
	if err := raw.Send(transport.Message{
		Type:    msgCredit,
		Payload: encodeCredit(creditMsg{Route: 0, Bytes: 0}),
	}); err != nil {
		t.Fatalf("send zero grant: %v", err)
	}
	// The hub kills the link: our next receive observes the close.
	if _, err := raw.Recv(); err == nil {
		t.Fatal("hub kept the link alive after a zero-byte credit grant")
	}
	_ = raw.Close()
	_ = hub.Close()
	snap := hub.Snapshot()
	if snap.MuxOverheadIn == 0 {
		t.Error("malformed grant bytes were not charged to mux ingress overhead")
	}
	if recv, _ := snap.SupervisorLinkBytes(); recv != hubUp.Stats().BytesRecv() {
		t.Errorf("violating link received %dB, ledgers account %dB", hubUp.Stats().BytesRecv(), recv)
	}
}

// TestMuxRejectsZeroCreditGrant is the mirror direction: a peer posing as
// the hub grants a route zero bytes, and the supervisor mux must fail the
// link on the malformed grant.
func TestMuxRejectsZeroCreditGrant(t *testing.T) {
	sup, hubSide := transport.Pipe(transport.WithBuffer(8), transport.WithRecvTimeout(5*time.Second))
	m, err := OpenMux(sup, "sup")
	if err != nil {
		t.Fatalf("OpenMux: %v", err)
	}
	defer m.Close()
	if _, err := hubSide.Recv(); err != nil { // the mux hello
		t.Fatalf("recv mux hello: %v", err)
	}
	r, err := m.OpenRoute("w")
	if err != nil {
		t.Fatalf("OpenRoute: %v", err)
	}
	if _, err := hubSide.Recv(); err != nil { // the open hello
		t.Fatalf("recv open hello: %v", err)
	}
	if err := hubSide.Send(transport.Message{
		Type:    msgCredit,
		Payload: encodeCredit(creditMsg{Route: 0, Bytes: 0}),
	}); err != nil {
		t.Fatalf("send zero grant: %v", err)
	}
	if _, err := r.Recv(); err == nil {
		t.Fatal("route outlived a zero-byte credit grant on its link")
	}
	if !m.Failed() {
		t.Error("mux did not classify the zero-byte grant as a link failure")
	}
	_ = hubSide.Close()
}

// TestMuxFailsCreditIgnoringHub pins the tentpole's violation rule on the
// hub→supervisor leg: a peer posing as the hub keeps pushing routed frames
// long after the route's extended receive credit (plus the one-frame
// protocol slack) is spent. The mux must classify the overrun as a link
// violation and kill the whole link, exactly as the hub classifies a
// credit-ignoring supervisor.
func TestMuxFailsCreditIgnoringHub(t *testing.T) {
	oldSlack := creditSlackBytes
	creditSlackBytes = 1024 // tighten so the test need not push MaxFrameBytes
	defer func() { creditSlackBytes = oldSlack }()

	sup, hubSide := transport.Pipe(transport.WithBuffer(8), transport.WithRecvTimeout(5*time.Second))
	m, err := OpenMux(sup, "sup", WithRouteCreditWindow(4096))
	if err != nil {
		t.Fatalf("OpenMux: %v", err)
	}
	defer m.Close()
	if _, err := hubSide.Recv(); err != nil { // the mux hello
		t.Fatalf("recv mux hello: %v", err)
	}
	r, err := m.OpenRoute("w")
	if err != nil {
		t.Fatalf("OpenRoute: %v", err)
	}
	if _, err := hubSide.Recv(); err != nil { // the open hello
		t.Fatalf("recv open hello: %v", err)
	}

	// Nobody drains r's inbox, so the 4096-byte initial window plus the
	// tightened slack is spent within a few frames; keep sending past it.
	payload := make([]byte, 2048)
	for i := 0; i < 10; i++ {
		if err := hubSide.Send(transport.Message{
			Type: msgRouted,
			Payload: encodeRouted([]routedEntry{
				{Route: 0, Type: msgResultChunk, Payload: payload},
			}),
		}); err != nil {
			break // link already failed under us — that is the expected end state
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for !m.Failed() {
		if time.Now().After(deadline) {
			t.Fatal("mux never classified the credit overrun as a link violation")
		}
		time.Sleep(time.Millisecond)
	}
	// Frames delivered before the violation drain normally; the queue must
	// end in the link error, not keep delivering past it.
	drained := 0
	for ; ; drained++ {
		if _, err := r.Recv(); err != nil {
			break
		}
		if drained > 16 {
			t.Fatal("route still delivering after its link was failed for a credit overrun")
		}
	}
	_ = hubSide.Close()
}
