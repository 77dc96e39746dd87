package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uncheatgrid/internal/transport"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the tracer was created; Parent is the ID of the span
// that caused this one (-1 at the root); Task is the task ID a span belongs
// to (-1 for spans that are not about one task).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Task   int64  `json:"task"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// linkCounts are the boundary counts of every wrapped endpoint in one role
// (supervisor link ends, participant ends, the hub's two sides, mux
// routes). Frames and bytes count successful sends and receives; the two
// durations are the time callers spent inside Send and blocked in Recv.
type linkCounts struct {
	framesOut, framesIn atomic.Int64
	sizeOut, sizeIn     atomic.Int64
	sendBusy, recvWait  atomic.Int64 // nanoseconds
	endpoints           atomic.Int64
}

// tracer keeps spans in memory and the per-role link counts; a nil *tracer
// is tracing switched off, and every method is a no-op on it.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	roles map[string]*linkCounts
}

// Wrapped endpoint roles.
const (
	roleSup     = "sup"     // supervisor ends of physical links
	rolePart    = "part"    // participant ends
	roleHubDown = "hubdown" // the hub's ends of the worker legs
	roleHubUp   = "hubup"   // the hub's end of the shared supervisor link
	roleRoute   = "route"   // mux routes (virtual conns above the shared link)
)

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), spans: make([]span, 0, 1<<17), roles: make(map[string]*linkCounts)}
	for _, r := range []string{roleSup, rolePart, roleHubDown, roleHubUp, roleRoute} {
		t.roles[r] = new(linkCounts)
	}
	return t
}

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, task int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Task: task, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) spanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// counts returns the role's boundary counts (a zero value when tracing is
// off, so callers can read them unconditionally).
func (t *tracer) counts(role string) *linkCounts {
	if t == nil {
		return new(linkCounts)
	}
	return t.roles[role]
}

// wrap returns conn behind the pass-through counting wrapper for role, or
// conn itself when tracing is off.
//
//gridlint:credit one more wrapped endpoint joins the role's boundary counts
func (t *tracer) wrap(role string, conn transport.Conn) transport.Conn {
	if t == nil {
		return conn
	}
	c := t.roles[role]
	c.endpoints.Add(1)
	return &tracedConn{inner: conn, c: c}
}

// traceFile is the JSON document a traced run leaves behind.
type traceFile struct {
	Env      envInfo                   `json:"env"`
	Workload string                    `json:"workload"`
	Seed     uint64                    `json:"seed"`
	Counts   map[string]map[string]any `json:"counts"`
	Spans    []span                    `json:"spans"`
}

// write dumps the spans and boundary counts as JSON at path.
func (t *tracer) write(path string, env envInfo, workload string, seed uint64) error {
	if t == nil || path == "" {
		return nil
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	doc := traceFile{Env: env, Workload: workload, Seed: seed, Spans: spans, Counts: make(map[string]map[string]any)}
	for role, c := range t.roles {
		doc.Counts[role] = map[string]any{
			"endpoints":    c.endpoints.Load(),
			"frames_out":   c.framesOut.Load(),
			"frames_in":    c.framesIn.Load(),
			"bytes_out":    c.sizeOut.Load(),
			"bytes_in":     c.sizeIn.Load(),
			"send_busy_ns": c.sendBusy.Load(),
			"recv_wait_ns": c.recvWait.Load(),
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedConn is the pass-through boundary probe: it times and counts Send
// and Recv and otherwise changes nothing. Errors come back as the inner
// connection returned them — the very same value — so the session layer's
// errors.Is checks against the transport sentinels still classify them. It
// keeps no reference to a Message past the call: receive payloads are
// pooled and belong to whoever decodes them.
type tracedConn struct {
	inner transport.Conn
	c     *linkCounts
}

var _ transport.Conn = (*tracedConn)(nil)

// Send implements transport.Conn.
//
//gridlint:credit boundary counts of the traced run accumulate at the wrapped endpoint
func (t *tracedConn) Send(m transport.Message) error {
	size := m.FrameSize()
	start := time.Now()
	//gridlint:ignore errclassify pass-through probe: the inner error value is returned unchanged for the caller to classify
	err := t.inner.Send(m)
	t.c.sendBusy.Add(int64(time.Since(start)))
	if err == nil {
		t.c.framesOut.Add(1)
		t.c.sizeOut.Add(size)
	}
	return err
}

// Recv implements transport.Conn.
//
//gridlint:credit boundary counts of the traced run accumulate at the wrapped endpoint
func (t *tracedConn) Recv() (transport.Message, error) {
	start := time.Now()
	//gridlint:ignore errclassify pass-through probe: the inner error value is returned unchanged for the caller to classify
	m, err := t.inner.Recv()
	t.c.recvWait.Add(int64(time.Since(start)))
	if err == nil {
		t.c.framesIn.Add(1)
		t.c.sizeIn.Add(m.FrameSize())
	}
	return m, err
}

// Close implements transport.Conn.
func (t *tracedConn) Close() error { return t.inner.Close() }

// Stats implements transport.Conn: the inner endpoint's own counters.
func (t *tracedConn) Stats() *transport.Stats { return t.inner.Stats() }
