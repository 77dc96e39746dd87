package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"uncheatgrid/internal/transport"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables in spec.go
// equal: same workloads and reasons, same metrics, units, directions and
// bounds, in the same order.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, spec.go %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json names %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, def := range want {
			g := got[i]
			if g.Name != def.name || g.Unit != def.unit || g.Better != def.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go %+v", kind, i, g, def)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.bound):
				t.Errorf("%s: bound in BENCHMARK.json differs from spec.go's %v", def.name, def.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", def.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestSmoke drives the whole harness — conformance, set-up, the timed run,
// the traced run, every probe — on every workload at about 1% size, and
// asserts that each run is correct and emits exactly the metrics
// BENCHMARK.json names for its mode, with their units.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "7", "-scratch", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, stderr.String())
	}
	type key struct {
		workload string
		trace    int
	}
	seen := make(map[key]record)
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var rec record
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		seen[key{rec.Workload, rec.Trace}] = rec
	}
	if len(seen) != 2*len(m.Workloads) {
		t.Errorf("smoke run emitted %d records, want one traced and one untraced for each of %d workloads",
			len(seen), len(m.Workloads))
	}
	for _, w := range m.Workloads {
		for trace, want := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
			rec, ok := seen[key{w.Name, trace}]
			if !ok {
				t.Errorf("%s trace=%d: no record", w.Name, trace)
				continue
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d problems=%v", w.Name, trace,
					rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Problems)
			}
			if len(rec.Result.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics emitted, BENCHMARK.json names %d",
					w.Name, trace, len(rec.Result.Metrics), len(want))
			}
			for _, def := range want {
				got, ok := rec.Result.Metrics[def.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: metric %s not emitted", w.Name, trace, def.Name)
				case got.Unit != def.Unit:
					t.Errorf("%s trace=%d: metric %s in %q, want %q", w.Name, trace, def.Name, got.Unit, def.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%d: metric %s is %v", w.Name, trace, def.Name, got.Value)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, def.Name, got.Value)
				}
			}
		}
	}
}

// failingConn fails every operation with a fixed error value.
type failingConn struct {
	transport.Conn
	err error
}

func (c failingConn) Send(transport.Message) error { return c.err }

func (c failingConn) Recv() (transport.Message, error) { return transport.Message{}, c.err }

// TestTracedConnIsTransparent checks the boundary probe's two promises: an
// inner error comes back as the very same value (so errors.Is against the
// transport sentinels keeps working above it), and payloads pass through
// untouched while frames and bytes are counted.
func TestTracedConnIsTransparent(t *testing.T) {
	tr := newTracer()
	a, b := transport.Pipe(transport.WithBuffer(1))
	wa, wb := tr.wrap(roleSup, a), tr.wrap(rolePart, b)

	payload := []byte("sixteen byte msg")
	msg := transport.Message{Type: 3, Payload: payload}
	if err := wa.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := wb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msg.Type || &got.Payload[0] != &payload[0] {
		t.Errorf("wrapper altered the frame: got type %d payload %q", got.Type, got.Payload)
	}
	sup, part := tr.counts(roleSup), tr.counts(rolePart)
	if sup.framesOut.Load() != 1 || sup.sizeOut.Load() != msg.FrameSize() ||
		part.framesIn.Load() != 1 || part.sizeIn.Load() != msg.FrameSize() {
		t.Errorf("boundary counts: sup out %d frames/%d B, part in %d frames/%d B, want 1 frame of %d B each",
			sup.framesOut.Load(), sup.sizeOut.Load(), part.framesIn.Load(), part.sizeIn.Load(), msg.FrameSize())
	}
	if wa.Stats() != a.Stats() {
		t.Error("Stats must be the inner endpoint's own counters")
	}

	_ = wa.Close()
	if err := wa.Send(msg); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("send on a closed link: %v, want transport.ErrClosed", err)
	}
	if sup.framesOut.Load() != 1 {
		t.Error("a failed send was counted")
	}
	sentinel := errors.New("inner failure")
	wf := tr.wrap(roleSup, failingConn{err: sentinel})
	if err := wf.Send(msg); err != sentinel {
		t.Errorf("Send returned %v, want the inner error value itself", err)
	}
	if _, err := wf.Recv(); err != sentinel {
		t.Errorf("Recv returned %v, want the inner error value itself", err)
	}

	var off *tracer
	if off.wrap(roleSup, a) != a {
		t.Error("tracing off must hand the connection back unwrapped")
	}
}

// TestSliceSummaries checks that each timing is the fast tail over the
// phase's slices: a third of the slices losing half their speed to a
// neighbour must not move any of them, and the ragged slice past the
// deadline must not count.
func TestSliceSummaries(t *testing.T) {
	o := &observation{cpuAt: []time.Duration{0}}
	const slices = 12
	for k := 0; k < slices+1; k++ {
		n, lat, cpu := 100, 2.0, 400*time.Millisecond
		if k%3 == 2 { // disturbed: half the tasks, twice the latency, same CPU
			n, lat = 50, 4.0
		}
		if k == slices { // past the deadline
			n, lat = 3, 9.0
		}
		o.perSlice = append(o.perSlice, n)
		o.latBySlice = append(o.latBySlice, make([]float64, n))
		for i := range o.latBySlice[k] {
			o.latBySlice[k][i] = lat + float64(i)/float64(n) // p50 = lat+0.49, p95 = lat+0.94
		}
		o.cpuAt = append(o.cpuAt, o.cpuAt[k]+cpu)
	}
	o.perSlice = o.perSlice[:slices] // what meter.finish does
	for name, c := range map[string]struct{ got, want float64 }{
		"rate":       {o.rate(), 100 / sliceWidth.Seconds()},
		"p50":        {o.latency(50), 2.49},
		"p95":        {o.latency(95), 2.94},
		"cpuPerTask": {o.cpuPerTask(), 4},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, c.got, c.want)
		}
	}
	if got, want := len(o.latencies()), 8*100+4*50+3; got != want {
		t.Errorf("latencies() holds %d tasks, want all %d", got, want)
	}

	// A phase shorter than one slice falls back to its totals.
	short := &observation{attempted: 30, wall: 150 * time.Millisecond, latBySlice: [][]float64{{1, 2, 3}}}
	short.used.cpu = 60 * time.Millisecond
	if got := short.rate(); math.Abs(got-200) > 1e-9 {
		t.Errorf("short phase rate = %v, want 200", got)
	}
	if got := short.latency(50); got != 2 {
		t.Errorf("short phase p50 = %v, want 2", got)
	}
	if got := short.cpuPerTask(); math.Abs(got-2) > 1e-9 {
		t.Errorf("short phase cpu per task = %v, want 2", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25].
	v := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("constant values spread %v", got)
	}
}

func TestBinomialBand(t *testing.T) {
	// 133 cheater tasks at m=8, r=0.5: 0.52 escapes expected.
	p := math.Pow(0.5, 8)
	for k, want := range map[int]bool{0: true, 1: true, 3: true, 5: true, 7: false, 133: false} {
		if got := withinBinomialBand(133, k, p); got != want {
			t.Errorf("withinBinomialBand(133, %d, 2^-8) = %v, want %v", k, got, want)
		}
	}
	// A verifier that rejects everything would leave a fair coin at 0 of 200.
	if withinBinomialBand(200, 0, 0.5) {
		t.Error("0 of 200 at p=0.5 must fall outside the band")
	}
	if got := binomialTail(10, 0, 0.3); got != 1 {
		t.Errorf("P[X >= 0] = %v", got)
	}
	if got, want := binomialTail(4, 2, 0.5), 11.0/16; math.Abs(got-want) > 1e-12 {
		t.Errorf("P[X >= 2 | n=4, p=.5] = %v, want %v", got, want)
	}
}
