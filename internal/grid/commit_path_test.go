package grid

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"uncheatgrid/internal/cheat"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// scriptConn is a protoConn for driving one scheme runner directly: Recv
// hands out the scripted messages in order, Send keeps the last payload of
// each message type.
type scriptConn struct {
	in   []transport.Message
	sent map[uint8][]byte
}

func (c *scriptConn) Send(m transport.Message) error {
	if c.sent != nil {
		c.sent[m.Type] = bytes.Clone(m.Payload)
	}
	return nil
}

func (c *scriptConn) Recv() (transport.Message, error) {
	if len(c.in) == 0 {
		return transport.Message{}, io.EOF
	}
	m := c.in[0]
	c.in = c.in[1:]
	return m, nil
}

// newCommitExecution prepares an honest execution of a synthetic task the
// way executeTask does, returning the evaluation counter beside it.
func newCommitExecution(tb testing.TB, n uint64, spec SchemeSpec, screener workload.Screener) (*taskExecution, *workload.Counter) {
	tb.Helper()
	task := Task{ID: 1, Start: 1000, N: n, Workload: "synthetic", Seed: 11}
	base, err := workload.New(task.Workload, task.Seed)
	if err != nil {
		tb.Fatalf("workload.New: %v", err)
	}
	if screener == nil {
		screener = base.Screener()
	}
	counted := workload.Count(base)
	return &taskExecution{task: task, spec: spec, producer: cheat.NewHonest(counted), screener: screener}, counted
}

// TestCBSScreensEachInputOnce pins what the commit pass's phase flag rests
// on, at grid level: whatever ℓ is and wherever a resume picks the exchange
// up, every input is screened exactly once and the msgReports payload is the
// same bytes — the §3.3 subtree rebuilds behind the proofs re-evaluate f
// (m·2^ℓ times, counted) but never re-screen or re-report.
func TestCBSScreensEachInputOnce(t *testing.T) {
	const (
		n = 96 // not a power of two, and whole 2^3 blocks: every rebuilt leaf is real
		m = 5
	)
	challenge, err := core.Challenge{Indices: []uint64{0, 17, 17, 64, 95}}.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal challenge: %v", err)
	}
	resumes := []struct {
		name string
		res  *resumeMsg
	}{
		{"fresh", nil},
		{"resumed after commit", &resumeMsg{HaveCommit: true}},
		{"resumed after challenge", &resumeMsg{HaveCommit: true, Challenge: challenge}},
	}
	var wantReports []byte
	for _, kind := range []SchemeKind{SchemeCBS, SchemeNICBS} {
		for _, ell := range []int{0, 3} {
			for _, rc := range resumes {
				name := fmt.Sprintf("%v/ℓ=%d/%s", kind, ell, rc.name)
				screens := make(map[uint64]int, n)
				screener := workload.ScreenerFunc(func(x uint64, out []byte) (string, bool) {
					screens[x]++
					return fmt.Sprintf("%d:%x", x, out), x%7 == 0
				})
				spec := SchemeSpec{Kind: kind, M: m, ChainIters: 1, SubtreeHeight: ell}
				exec, counted := newCommitExecution(t, n, spec, screener)
				conn := &scriptConn{sent: make(map[uint8][]byte)}
				var chain *hashchain.Chain
				if kind == SchemeNICBS {
					if chain, err = hashchain.New(spec.ChainIters); err != nil {
						t.Fatalf("hashchain.New: %v", err)
					}
				} else if rc.res == nil || rc.res.Challenge == nil {
					conn.in = []transport.Message{{Type: msgChallenge, Payload: challenge}}
				}
				if err := exec.runCBS(conn, kind == SchemeNICBS, chain, rc.res); err != nil {
					t.Fatalf("%s: runCBS: %v", name, err)
				}

				if len(screens) != n {
					t.Errorf("%s: %d distinct inputs screened, want %d", name, len(screens), n)
				}
				for x, c := range screens {
					if c != 1 {
						t.Errorf("%s: input %d screened %d times, want exactly 1", name, x, c)
					}
				}
				wantEvals := int64(n)
				if ell > 0 {
					wantEvals += m << ell // each proof rebuilds its 2^ℓ-leaf subtree
				}
				if counted.Evals() != wantEvals {
					t.Errorf("%s: %d evaluations of f, want %d", name, counted.Evals(), wantEvals)
				}
				reports, ok := conn.sent[msgReports]
				if !ok || conn.sent[msgProofs] == nil {
					t.Fatalf("%s: reports or proofs not sent", name)
				}
				if _, sent := conn.sent[msgCommit]; sent != (rc.res == nil) {
					t.Errorf("%s: commitment sent = %v", name, sent)
				}
				if wantReports == nil {
					wantReports = reports
					wantHits := 0
					for x := exec.task.Start; x < exec.task.Start+n; x++ {
						if x%7 == 0 {
							wantHits++
						}
					}
					decoded, err := decodeReports(reports)
					if err != nil || len(decoded) != wantHits {
						t.Fatalf("%s: %d reports decoded (%v), want %d", name, len(decoded), err, wantHits)
					}
				}
				if !bytes.Equal(reports, wantReports) {
					t.Errorf("%s: msgReports payload differs from the fresh full-tree run's", name)
				}
			}
		}
	}
}

// TestProverParallelismTallyIsSingleGoroutine checks the assumption the plain
// per-task tally (workload.Counter) rests on, through executeTask and under
// -race: with WithProverParallelism the tree fans out but f does not — the
// ℓ=0 path materialises the claimed values serially before the parallel
// build, and ℓ>0 builds sequentially — so every combination commits the same
// root and folds the same exact evaluation count into Totals().FEvals.
func TestProverParallelismTallyIsSingleGoroutine(t *testing.T) {
	const (
		n = 2048 // above merkle's parallel threshold, so p=4 really forks
		m = 4
	)
	challenge, err := core.Challenge{Indices: []uint64{0, 1023, 1024, 2047}}.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal challenge: %v", err)
	}
	verdict := transport.Message{Type: msgVerdict, Payload: encodeVerdict(Verdict{Accepted: true})}
	for _, kind := range []SchemeKind{SchemeCBS, SchemeNICBS} {
		for _, ell := range []int{0, 3} {
			var wantCommit []byte
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%v/ℓ=%d/p=%d", kind, ell, par)
				p, err := NewParticipant("w", HonestFactory, WithProverParallelism(par))
				if err != nil {
					t.Fatalf("NewParticipant: %v", err)
				}
				conn := &scriptConn{sent: make(map[uint8][]byte), in: []transport.Message{verdict}}
				if kind == SchemeCBS {
					conn.in = []transport.Message{{Type: msgChallenge, Payload: challenge}, verdict}
				}
				a := assignment{
					Task: Task{ID: 1, Start: 1000, N: n, Workload: "synthetic", Seed: 11},
					Spec: SchemeSpec{Kind: kind, M: m, ChainIters: 1, SubtreeHeight: ell},
				}
				if err := p.executeTask(conn, a, nil); err != nil {
					t.Fatalf("%s: executeTask: %v", name, err)
				}
				wantEvals := int64(n)
				if ell > 0 {
					wantEvals += m << ell
				}
				if got := p.Totals(); got.Tasks != 1 || got.Accepted != 1 || got.FEvals != wantEvals {
					t.Errorf("%s: totals %+v, want 1 accepted task and %d evaluations of f", name, got, wantEvals)
				}
				if wantCommit == nil {
					wantCommit = conn.sent[msgCommit]
				}
				if len(wantCommit) == 0 || !bytes.Equal(conn.sent[msgCommit], wantCommit) {
					t.Errorf("%s: commitment differs from the sequential participant's", name)
				}
			}
		}
	}
}
