package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// Listener accepts TCP connections speaking the framed message protocol.
type Listener struct {
	inner net.Listener
}

// Listen opens a TCP listener on addr (e.g. "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{inner: l}, nil
}

// Addr reports the bound address, useful with port 0.
func (l *Listener) Addr() string { return l.inner.Addr().String() }

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return newTCPConn(c), nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.inner.Close() }

// Dial connects to a transport listener at addr.
func Dial(addr string) (Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

// DialTimeout is Dial with a connect deadline.
func DialTimeout(addr string, d time.Duration) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c), nil
}

// tcpConn frames messages over a TCP stream:
// [type:1][len:4 BE][crc:4 BE][payload], where crc is CRC-32 (IEEE) over
// the type byte and the payload.
type tcpConn struct {
	conn net.Conn
	br   *bufio.Reader
	// rhdr is the receive-side frame header. Recv has one caller at a time
	// by the Conn contract, so the header lives here instead of escaping to
	// the heap on every frame.
	rhdr [frameOverhead]byte

	wmu sync.Mutex // serializes writes; guards wbuf
	// wbuf holds the frame being written: header plus, up to
	// coalesceMaxPayload, the payload, so a frame is one write.
	wbuf []byte

	stats Stats
}

var _ Conn = (*tcpConn)(nil)

// coalesceMaxPayload is the largest payload Send copies behind its header
// for a single write. Larger frames go out as one vectored write (writev on
// a TCP socket) so big uploads are never copied.
const coalesceMaxPayload = 64 << 10

func newTCPConn(c net.Conn) *tcpConn {
	tc := &tcpConn{conn: c, br: bufio.NewReader(c)}
	tc.stats.sendCopies = true
	return tc
}

// Send implements Conn. A frame enters the socket as one write: two would
// cost a second syscall and, under TCP_NODELAY, put the 9-byte header on
// the wire as a segment of its own.
func (c *tcpConn) Send(m Message) error {
	if err := checkFrameSize(len(m.Payload)); err != nil {
		return err
	}
	sum := frameChecksum(m.Type, m.Payload)
	if m.corrupted {
		// A fault injector upstream garbled the frame; emit a broken CRC so
		// the damage is real on the socket, not just a process-local flag.
		sum = ^sum
	}

	c.wmu.Lock()
	defer c.wmu.Unlock()
	hdr := append(c.wbuf[:0], m.Type, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(m.Payload)))
	binary.BigEndian.PutUint32(hdr[5:], sum)

	var err error
	if len(m.Payload) <= coalesceMaxPayload {
		c.wbuf = append(hdr, m.Payload...)
		_, err = c.conn.Write(c.wbuf)
	} else {
		c.wbuf = hdr
		frame := net.Buffers{hdr, m.Payload}
		_, err = frame.WriteTo(c.conn)
	}
	if err != nil {
		return normalizeNetErr(err)
	}
	c.stats.recordSend(m)
	return nil
}

// Recv implements Conn.
func (c *tcpConn) Recv() (Message, error) {
	header := c.rhdr[:]
	if _, err := io.ReadFull(c.br, header); err != nil {
		if errors.Is(err, io.EOF) {
			return Message{}, io.EOF
		}
		return Message{}, normalizeNetErr(drainEOF(err))
	}
	length := int(binary.BigEndian.Uint32(header[1:5]))
	if err := checkFrameSize(length); err != nil {
		return Message{}, err
	}
	payload := GetPayload(length)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		RecyclePayload(payload)
		return Message{}, normalizeNetErr(drainEOF(err))
	}
	m := Message{Type: header[0], Payload: payload}
	// The frame crossed the wire either way; count it before the integrity
	// check so receiver accounting matches the link.
	c.stats.recordRecv(m)
	if got, want := frameChecksum(header[0], payload), binary.BigEndian.Uint32(header[5:]); got != want {
		// The corrupt payload is dropped here, never delivered; its buffer
		// can go straight back to the pool (its bytes were already counted).
		RecyclePayload(payload)
		return Message{}, fmt.Errorf("%w: frame crc %08x, want %08x", ErrFrameCorrupt, got, want)
	}
	return m, nil
}

// frameChecksum is the per-frame CRC-32 (IEEE) over the type byte and the
// payload — the integrity check every framed transport carries.
func frameChecksum(typ uint8, payload []byte) uint32 {
	return crc32.Update(typeChecksums[typ], crc32.IEEETable, payload)
}

// typeChecksums[t] is the CRC-32 of the one-byte message {t}: the running
// checksum every frame of that type starts from, tabulated so no one-byte
// slice is built (and heap-allocated) per frame.
var typeChecksums = func() (sums [256]uint32) {
	for t := range sums {
		sums[t] = crc32.ChecksumIEEE([]byte{byte(t)})
	}
	return sums
}()

// Close implements Conn.
func (c *tcpConn) Close() error { return c.conn.Close() }

// Stats implements Conn.
func (c *tcpConn) Stats() *Stats { return &c.stats }

// normalizeNetErr maps closed-connection errors onto ErrClosed so callers
// can treat both transports uniformly.
func normalizeNetErr(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}
