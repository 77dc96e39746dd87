package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// countingConn counts the Write calls a tcpConn makes on its socket.
// Embedding the *net.TCPConn keeps its vectored-write method promoted, so
// net.Buffers.WriteTo still reaches writev through it: a frame that arrives
// without any Write call left as one vectored write of header and payload,
// the only other way bytes enter this socket.
type countingConn struct {
	*net.TCPConn
	writes       atomic.Int64
	bytesWritten atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	n, err := c.TCPConn.Write(p)
	c.bytesWritten.Add(int64(n))
	return n, err
}

// countedLoopback connects a tcpConn pair over a real loopback socket with
// the client's socket wrapped in a countingConn.
func countedLoopback(t *testing.T) (client, server *tcpConn, counter *countingConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	accepted, err := l.Accept()
	if err != nil {
		raw.Close()
		t.Fatalf("accept: %v", err)
	}
	counter = &countingConn{TCPConn: raw.(*net.TCPConn)}
	client, server = newTCPConn(counter), newTCPConn(accepted)
	t.Cleanup(func() {
		client.Close()
		server.Close()
	})
	return client, server, counter
}

// patterned returns n bytes that differ by position, so a frame assembled
// from the wrong pieces cannot compare equal.
func patterned(n int, salt byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31) ^ salt
	}
	return p
}

func TestTCPSendIsOneWritePerFrame(t *testing.T) {
	client, server, counter := countedLoopback(t)
	sizes := []int{0, 1, coalesceMaxPayload, coalesceMaxPayload + 1, 1 << 20}
	for i, size := range sizes {
		want := Message{Type: uint8(10 + i), Payload: patterned(size, byte(i))}
		counter.writes.Store(0)
		counter.bytesWritten.Store(0)

		// A frame larger than the socket buffers needs its reader running.
		type received struct {
			m   Message
			err error
		}
		got := make(chan received, 1)
		go func() {
			m, err := server.Recv()
			got <- received{m, err}
		}()
		if err := client.Send(want); err != nil {
			t.Fatalf("size %d: Send: %v", size, err)
		}
		r := <-got
		if r.err != nil {
			t.Fatalf("size %d: Recv: %v", size, r.err)
		}
		if r.m.Type != want.Type || !bytes.Equal(r.m.Payload, want.Payload) {
			t.Fatalf("size %d: frame did not round-trip", size)
		}

		writes, wrote := counter.writes.Load(), counter.bytesWritten.Load()
		if size <= coalesceMaxPayload {
			if writes != 1 || wrote != want.FrameSize() {
				t.Errorf("size %d: %d Write calls carrying %d bytes, want 1 carrying %d",
					size, writes, wrote, want.FrameSize())
			}
		} else if writes != 0 {
			// See countingConn: no Write call means one vectored write.
			t.Errorf("size %d: %d Write calls on the vectored path, want 0", size, writes)
		}
		RecyclePayload(r.m.Payload)
	}
	if sent, recv := client.Stats().BytesSent(), server.Stats().BytesRecv(); sent != recv {
		t.Errorf("client sent %d bytes, server received %d", sent, recv)
	}
	if got := client.Stats().MsgsSent(); got != int64(len(sizes)) {
		t.Errorf("MsgsSent = %d, want %d", got, len(sizes))
	}
}

func TestTCPCorruptedFrameCountedAndRejected(t *testing.T) {
	// Both write paths must put the inverted CRC on the socket.
	for _, size := range []int{13, coalesceMaxPayload + 1} {
		client, server, _ := countedLoopback(t)
		bad := Message{Type: 5, Payload: patterned(size, 7), corrupted: true}
		errc := make(chan error, 1)
		go func() {
			_, err := server.Recv()
			errc <- err
		}()
		if err := client.Send(bad); err != nil {
			t.Fatalf("size %d: Send: %v", size, err)
		}
		if err := <-errc; !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("size %d: Recv err = %v, want ErrFrameCorrupt", size, err)
		}
		if got := server.Stats().BytesRecv(); got != bad.FrameSize() || server.Stats().MsgsRecv() != 1 {
			t.Errorf("size %d: corrupt frame accounted as %d bytes / %d msgs, want %d / 1",
				size, got, server.Stats().MsgsRecv(), bad.FrameSize())
		}
		// The link itself is intact: the next frame delivers.
		if err := client.Send(Message{Type: 6, Payload: []byte("ok")}); err != nil {
			t.Fatalf("size %d: clean Send: %v", size, err)
		}
		if m, err := server.Recv(); err != nil || m.Type != 6 || string(m.Payload) != "ok" {
			t.Fatalf("size %d: clean Recv = %+v, %v", size, m, err)
		}
	}
}

func TestTCPFailedSendCreditsNothing(t *testing.T) {
	for _, size := range []int{4, coalesceMaxPayload + 1} {
		client, _, _ := countedLoopback(t)
		client.Close()
		if err := client.Send(Message{Type: 1, Payload: make([]byte, size)}); !errors.Is(err, ErrClosed) {
			t.Fatalf("size %d: Send on closed conn: err = %v, want ErrClosed", size, err)
		}
		if s := client.Stats(); s.BytesSent() != 0 || s.MsgsSent() != 0 {
			t.Errorf("size %d: failed send credited %d bytes / %d msgs", size, s.BytesSent(), s.MsgsSent())
		}
	}
}

func TestTCPConcurrentSendersNeverInterleave(t *testing.T) {
	client, server, _ := countedLoopback(t)
	const senders, perSender = 8, 60
	// Every payload is one repeated byte naming its sender, opening with
	// its sequence number; sizes straddle the coalescing threshold so both
	// write paths contend for the socket.
	size := func(seq int) int {
		if seq%20 == 19 {
			return coalesceMaxPayload + 1 + seq
		}
		return 2 + seq*37
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; seq < perSender; seq++ {
				p := bytes.Repeat([]byte{byte(s)}, size(seq))
				p[0] = byte(seq)
				if err := client.Send(Message{Type: uint8(s), Payload: p}); err != nil {
					t.Errorf("sender %d frame %d: %v", s, seq, err)
					return
				}
			}
		}(s)
	}
	// A failure closes the socket and joins the senders before reporting,
	// so none of them logs into a finished test.
	fail := func(format string, args ...any) {
		t.Helper()
		client.Close()
		wg.Wait()
		t.Fatalf(format, args...)
	}
	next := make([]int, senders)
	for i := 0; i < senders*perSender; i++ {
		m, err := server.Recv()
		if err != nil {
			fail("frame %d: Recv: %v", i, err)
		}
		s := int(m.Type)
		if s >= senders || len(m.Payload) == 0 || int(m.Payload[0]) != next[s] || len(m.Payload) != size(next[s]) {
			fail("frame %d: sender %d out of order or torn (len %d)", i, s, len(m.Payload))
		}
		for _, b := range m.Payload[1:] {
			if b != byte(s) {
				fail("frame %d: sender %d's payload carries another frame's bytes", i, s)
			}
		}
		next[s]++
		RecyclePayload(m.Payload)
	}
	wg.Wait()
}

// TestTCPFrameBytesOnTheWire reads what Send wrote with a bare socket and
// compares it with the frame format assembled by hand, on both write paths:
// [type:1][len:4 BE][crc:4 BE][payload], crc = CRC-32 (IEEE) of type||payload.
func TestTCPFrameBytesOnTheWire(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	peer, err := l.Accept()
	if err != nil {
		raw.Close()
		t.Fatalf("accept: %v", err)
	}
	defer peer.Close()
	client := newTCPConn(raw)
	defer client.Close()

	for _, size := range []int{0, 5, coalesceMaxPayload + 3} {
		m := Message{Type: 0xa7, Payload: patterned(size, 9)}
		want := []byte{m.Type}
		want = binary.BigEndian.AppendUint32(want, uint32(size))
		want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE(append([]byte{m.Type}, m.Payload...)))
		want = append(want, m.Payload...)

		got := make([]byte, len(want))
		readErr := make(chan error, 1)
		go func() {
			_, err := io.ReadFull(peer, got)
			readErr <- err
		}()
		if err := client.Send(m); err != nil {
			t.Fatalf("size %d: Send: %v", size, err)
		}
		if err := <-readErr; err != nil {
			t.Fatalf("size %d: read: %v", size, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: wire bytes differ from the frame format (header %x, want %x)",
				size, got[:frameOverhead], want[:frameOverhead])
		}
	}
}

// TestSendCopiesIsAPropertyOfTheLink pins the one thing a sender may learn
// about a link: a TCP endpoint's Send is a system call that is done with
// the caller's buffer on return, a pipe's is not, and the answer reaches
// the sender through every wrapper because it rides on the Stats they all
// pass through.
func TestSendCopiesIsAPropertyOfTheLink(t *testing.T) {
	client, server, _ := countedLoopback(t)
	for name, conn := range map[string]Conn{
		"tcp client":        client,
		"tcp server":        server,
		"faults over tcp":   WithFaults(client, FaultPlan{DropProb: 0.5}),
		"latency over tcp":  WithLatency(client, 1),
		"faults on latency": WithFaults(WithLatency(server, 1), FaultPlan{}),
	} {
		if !conn.Stats().SendCopies() {
			t.Errorf("%s: SendCopies() = false, want true", name)
		}
	}
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	for name, conn := range map[string]Conn{
		"pipe":             a,
		"pipe peer":        b,
		"faults over pipe": WithFaults(a, FaultPlan{}),
	} {
		if conn.Stats().SendCopies() {
			t.Errorf("%s: SendCopies() = true, want false", name)
		}
	}
	var virtual Stats // what a mux route owns
	if virtual.SendCopies() {
		t.Error("a zero Stats reports a copying Send")
	}
}
