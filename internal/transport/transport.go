// Package transport moves protocol messages between supervisor, broker, and
// participants, with exact byte accounting so the experiments can measure
// the paper's O(n) vs O(m log n) communication claim on real traffic.
//
// Two implementations share one frame format
// ([type:1][length:4][crc:4][payload]): an in-memory duplex pipe for
// simulations and a TCP transport (package net) proving the protocol runs
// over real sockets. Every frame carries a CRC-32 computed at send time, so
// link damage surfaces as ErrFrameCorrupt at the receiver in every wire
// mode — dialogue exchanges included — instead of masquerading as a peer
// protocol violation. A fault-injection wrapper drops or garbles frames for
// failure testing.
package transport

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Errors reported by this package.
var (
	// ErrClosed is returned for operations on a closed connection.
	ErrClosed = errors.New("transport: connection closed")
	// ErrTimeout is returned when a receive deadline expires.
	ErrTimeout = errors.New("transport: receive timed out")
	// ErrFrameTooLarge guards against absurd declared frame lengths.
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	// ErrFrameCorrupt is returned by Recv when a frame fails its CRC-32 —
	// link damage rather than peer misbehavior. The frame's bytes are still
	// counted at the receiver (they crossed the wire) but its content is
	// discarded.
	ErrFrameCorrupt = errors.New("transport: frame failed integrity check")
)

// MaxFrameBytes bounds a single frame payload. Responses carry at most m
// O(log n)-digest audit paths, far below this limit; full naive uploads of very
// large tasks must be chunked by the caller.
const MaxFrameBytes = 64 << 20

// frameOverhead is the per-message header: 1 type byte + 4 length bytes +
// 4 CRC-32 bytes.
const frameOverhead = 9

// Message is one protocol frame: an application-defined type tag plus an
// opaque payload.
type Message struct {
	// Type tags the payload (see the grid package's message kinds).
	Type uint8
	// Payload is the encoded message body.
	Payload []byte

	// corrupted marks a frame damaged in transit. The TCP transport detects
	// damage with the real on-wire CRC-32; the in-memory pipe has no byte
	// stream to corrupt, so the fault injector sets this flag instead — the
	// exact effect a bit flip under the frame CRC would have, since CRC-32
	// catches every single-bit error. Recv surfaces it as ErrFrameCorrupt.
	corrupted bool
}

// FrameSize reports the on-wire size of the message, header included. Both
// transports account exactly this many bytes per send.
func (m Message) FrameSize() int64 {
	return frameOverhead + int64(len(m.Payload))
}

// Conn is a bidirectional, message-oriented connection. Send and Recv are
// each safe for one concurrent caller per direction; Close may be called
// from any goroutine and unblocks pending operations.
type Conn interface {
	// Send transmits one message.
	Send(m Message) error
	// Recv blocks for the next message. It returns io.EOF after the peer
	// closes and all delivered messages are drained.
	Recv() (Message, error)
	// Close releases the connection.
	Close() error
	// Stats exposes the traffic counters for this endpoint.
	Stats() *Stats
}

// Stats counts traffic at one connection endpoint. All methods are safe for
// concurrent use.
type Stats struct {
	bytesSent atomic.Int64
	bytesRecv atomic.Int64
	msgsSent  atomic.Int64
	msgsRecv  atomic.Int64

	// sendCopies is a property of the link, not a counter: set once by the
	// constructor of a connection whose Send is a system call, never after.
	sendCopies bool
}

// SendCopies reports whether Send on this endpoint copies the frame into
// the kernel with a system call and is done with the caller's buffer when
// it returns — true for TCP, false for pipes and every virtual connection.
// It rides on Stats because Stats is the one thing every wrapper (fault
// injection, latency, tracing) already passes through from the link it
// wraps. A sender may use it to put more messages behind one system call
// and to reuse the frame buffer (pool.go has the ownership rule).
func (s *Stats) SendCopies() bool { return s.sendCopies }

// BytesSent reports total bytes sent, frame headers included.
func (s *Stats) BytesSent() int64 { return s.bytesSent.Load() }

// BytesRecv reports total bytes received, frame headers included.
func (s *Stats) BytesRecv() int64 { return s.bytesRecv.Load() }

// MsgsSent reports the number of messages sent.
func (s *Stats) MsgsSent() int64 { return s.msgsSent.Load() }

// MsgsRecv reports the number of messages received.
func (s *Stats) MsgsRecv() int64 { return s.msgsRecv.Load() }

// recordSend credits one sent frame to the connection counters.
//
//gridlint:credit the transport layer owns its connection counters
func (s *Stats) recordSend(m Message) {
	s.bytesSent.Add(m.FrameSize())
	s.msgsSent.Add(1)
}

// recordRecv credits one received frame to the connection counters.
//
//gridlint:credit the transport layer owns its connection counters
func (s *Stats) recordRecv(m Message) {
	s.bytesRecv.Add(m.FrameSize())
	s.msgsRecv.Add(1)
}

// CreditSend credits n bytes and one message to the sent counters. It
// exists for virtual connections layered above transport — a multiplexed
// route that shares a physical link still owes its endpoint honest
// counters, denominated in the frame sizes its traffic would have cost on
// a dedicated link.
//
//gridlint:credit virtual conns above transport credit their own endpoint counters
func (s *Stats) CreditSend(n int64) {
	s.bytesSent.Add(n)
	s.msgsSent.Add(1)
}

// CreditRecv credits n bytes and one message to the received counters; the
// receive-side counterpart of CreditSend.
//
//gridlint:credit virtual conns above transport credit their own endpoint counters
func (s *Stats) CreditRecv(n int64) {
	s.bytesRecv.Add(n)
	s.msgsRecv.Add(1)
}

// checkFrameSize validates a payload length against MaxFrameBytes.
func checkFrameSize(n int) error {
	if n > MaxFrameBytes {
		return fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, MaxFrameBytes)
	}
	return nil
}

// drainEOF normalizes closed-connection read errors to io.EOF.
func drainEOF(err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return io.EOF
	}
	return err
}
