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

func (c *scriptConn) SendPair(a, b transport.Message) error {
	_ = c.Send(a)
	return c.Send(b)
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

// warmCommitKit returns a commitment kit that has served an n-input task,
// so its tree's leaf slab is sized and the next commit pass's runs are
// whole from the first.
func warmCommitKit(tb testing.TB, n uint64) *commitKit {
	tb.Helper()
	chain, err := hashchain.New(1)
	if err != nil {
		tb.Fatalf("hashchain.New: %v", err)
	}
	exec, _ := newCommitExecution(tb, n, SchemeSpec{Kind: SchemeNICBS, M: 4, ChainIters: 1}, nil)
	if err := exec.runCBS(&scriptConn{}, true, chain, nil); err != nil {
		tb.Fatalf("warm-up runCBS: %v", err)
	}
	return exec.kit
}

// TestCBSScreensEachInputOnce pins what the commit pass's phase flag rests
// on, at grid level: whatever ℓ is and wherever a resume picks the exchange
// up, every input is screened exactly once, in index order, and the
// msgReports payload is the same bytes — the commit pass appends claims into
// the tree's slab in runs of shortsha.Lanes (n = 16, 17, 31 and 97 end on a
// full run, a single leaf, a run one short and a single one; a fresh kit's
// first run is cut into one leaf and the rest, a warm kit's is whole),
// evaluating f exactly n times, and the §3.3 subtree rebuilds behind the
// proofs re-evaluate f (once per real leaf of each challenged sample's 2^ℓ
// block, counted) but never re-screen or re-report.
func TestCBSScreensEachInputOnce(t *testing.T) {
	const m = 5
	challenges := map[uint64][]uint64{
		16: {0, 3, 3, 8, 15},
		17: {0, 3, 3, 9, 16},
		31: {0, 9, 9, 17, 30},
		97: {0, 17, 17, 64, 95},
	}
	resumes := []struct {
		name      string
		resumed   bool
		challenge bool
		warmKit   bool
	}{
		{"fresh", false, false, false},
		{"fresh on a warm kit", false, false, true},
		{"resumed after commit", true, false, false},
		{"resumed after challenge", true, true, false},
	}
	for _, n := range []uint64{16, 17, 31, 97} {
		challenge, err := core.Challenge{Indices: challenges[n]}.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal challenge: %v", err)
		}
		var wantReports []byte
		for _, kind := range []SchemeKind{SchemeCBS, SchemeNICBS} {
			for _, ell := range []int{0, 3} {
				for _, rc := range resumes {
					name := fmt.Sprintf("n=%d/%v/ℓ=%d/%s", n, kind, ell, rc.name)
					var res *resumeMsg
					if rc.resumed {
						res = &resumeMsg{HaveCommit: true}
						if rc.challenge {
							res.Challenge = challenge
						}
					}
					screens := make(map[uint64]int, n)
					inOrder := true
					next := uint64(1000) // newCommitExecution's task starts there
					var counted *workload.Counter
					commitEvals := int64(-1)
					screener := workload.ScreenerFunc(func(x uint64, out []byte) (string, bool) {
						screens[x]++
						inOrder = inOrder && x == next
						next++
						if x == 1000+n-1 {
							commitEvals = counted.Evals()
						}
						return fmt.Sprintf("%d:%x", x, out), x%7 == 0
					})
					spec := SchemeSpec{Kind: kind, M: m, ChainIters: 1, SubtreeHeight: ell}
					var exec *taskExecution
					exec, counted = newCommitExecution(t, n, spec, screener)
					if rc.warmKit {
						exec.kit = warmCommitKit(t, n)
					}
					conn := &scriptConn{sent: make(map[uint8][]byte)}
					var chain *hashchain.Chain
					if kind == SchemeNICBS {
						if chain, err = hashchain.New(spec.ChainIters); err != nil {
							t.Fatalf("hashchain.New: %v", err)
						}
					} else if !rc.challenge {
						conn.in = []transport.Message{{Type: msgChallenge, Payload: challenge}}
					}
					if err := exec.runCBS(conn, kind == SchemeNICBS, chain, res); err != nil {
						t.Fatalf("%s: runCBS: %v", name, err)
					}

					if len(screens) != int(n) {
						t.Errorf("%s: %d distinct inputs screened, want %d", name, len(screens), n)
					}
					for x, c := range screens {
						if c != 1 {
							t.Errorf("%s: input %d screened %d times, want exactly 1", name, x, c)
						}
					}
					if !inOrder {
						t.Errorf("%s: inputs not screened in index order", name)
					}
					if commitEvals != int64(n) {
						t.Errorf("%s: the commit pass evaluated f %d times, want %d", name, commitEvals, n)
					}
					indices := challenges[n]
					if kind == SchemeNICBS {
						if indices, err = chain.SampleIndices(exec.digest, m, n); err != nil {
							t.Fatalf("%s: SampleIndices: %v", name, err)
						}
					}
					wantEvals := int64(n)
					if ell > 0 {
						// Each proof rebuilds its sample's 2^ℓ-leaf block.
						for _, idx := range indices {
							lo := idx >> ell << ell
							wantEvals += int64(min(lo+1<<ell, n) - lo)
						}
					}
					if counted.Evals() != wantEvals {
						t.Errorf("%s: %d evaluations of f, want %d", name, counted.Evals(), wantEvals)
					}
					reports, ok := conn.sent[msgReports]
					if !ok || conn.sent[msgProofs] == nil {
						t.Fatalf("%s: reports or proofs not sent", name)
					}
					if _, sent := conn.sent[msgCommit]; sent != !rc.resumed {
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

// TestRetainedClaimsOwnTheirBytes is the aliasing guard for the participant's
// scheme runners, which claim into reused buffers: every path that keeps a
// claimed value past the next claim — the upload's result vector, the values
// materialized for a parallel tree build, the partial tree's rebuilt
// subtrees — must send exactly what a participant holding each value in a
// slice of its own would. The reference side never reuses anything.
func TestRetainedClaimsOwnTheirBytes(t *testing.T) {
	const n = 2048 // above merkle's parallel threshold, so p=4 really forks
	spec := SchemeSpec{Kind: SchemeNICBS, M: 8, ChainIters: 1}
	chain, err := hashchain.New(spec.ChainIters)
	if err != nil {
		t.Fatalf("hashchain.New: %v", err)
	}
	ref, _ := newCommitExecution(t, n, spec, nil)
	fresh := make([][]byte, n)
	for i := range fresh {
		fresh[i] = ref.producer.AppendClaim(nil, ref.task.Start+uint64(i))
	}

	t.Run("upload", func(t *testing.T) {
		exec, _ := newCommitExecution(t, n, SchemeSpec{Kind: SchemeNaive, M: 8}, nil)
		conn := &scriptConn{sent: make(map[uint8][]byte)}
		if err := exec.runUpload(conn, nil); err != nil {
			t.Fatalf("runUpload: %v", err)
		}
		if !bytes.Equal(conn.sent[msgResults], encodeResults(fresh)) {
			t.Error("uploaded results differ from the fresh-slice participant's")
		}
		if !bytes.Equal(exec.digest, hashResults(fresh)) {
			t.Error("upload digest differs from the fresh-slice participant's")
		}
	})

	prover, err := core.NewProver(n, func(i uint64) []byte { return fresh[i] })
	if err != nil {
		t.Fatalf("NewProver: %v", err)
	}
	wantCommit, err := prover.Commitment().MarshalBinary()
	if err != nil {
		t.Fatalf("marshal commitment: %v", err)
	}
	resp, err := prover.RespondNonInteractive(chain, spec.M)
	if err != nil {
		t.Fatalf("RespondNonInteractive: %v", err)
	}
	wantProofs, err := resp.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal response: %v", err)
	}
	for _, tc := range []struct {
		name             string
		parallelism, ell int
	}{
		{"scratch", 1, 0},
		{"parallel build", 4, 0},
		{"partial tree", 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := spec
			spec.SubtreeHeight = tc.ell
			exec, _ := newCommitExecution(t, n, spec, nil)
			exec.parallelism = tc.parallelism
			conn := &scriptConn{sent: make(map[uint8][]byte)}
			if err := exec.runCBS(conn, true, chain, nil); err != nil {
				t.Fatalf("runCBS: %v", err)
			}
			if !bytes.Equal(conn.sent[msgCommit], wantCommit) {
				t.Error("commitment differs from the fresh-slice participant's")
			}
			if !bytes.Equal(conn.sent[msgProofs], wantProofs) {
				t.Error("proofs differ from the fresh-slice participant's")
			}
		})
	}
}

// TestCrossCheckReportsLookup pins the sampled-input lookup against an
// untrusted report list: order is not assumed, unsampled reports are
// ignored, a repeated input is judged by its last report, and a repeated
// sample is checked (and charged) each time it is drawn.
func TestCrossCheckReportsLookup(t *testing.T) {
	task := Task{ID: 1, Start: 1000, N: 64, Workload: "synthetic", Seed: 11}
	base, err := workload.New(task.Workload, task.Seed)
	if err != nil {
		t.Fatalf("workload.New: %v", err)
	}
	// Inputs 1003 and 1010 are the interesting ones.
	f := screenedFunction{Function: base, screener: workload.ScreenerFunc(func(x uint64, _ []byte) (string, bool) {
		return fmt.Sprintf("hit %d", x), x == 1003 || x == 1010
	})}
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 4}, Seed: 3, CrossCheckReports: true})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	indices := []uint64{10, 3, 7, 3} // unsorted, 3 drawn twice
	for _, tc := range []struct {
		name    string
		reports []Report
		want    string
	}{
		{"faithful, out of order, with unsampled extras",
			[]Report{{X: 1050, S: "noise"}, {X: 1010, S: "hit 1010"}, {X: 1000, S: "noise"}, {X: 1003, S: "hit 1003"}}, ""},
		{"missing", []Report{{X: 1010, S: "hit 1010"}}, "screener report missing or wrong for sampled input 1003"},
		{"wrong string", []Report{{X: 1010, S: "hit 1010"}, {X: 1003, S: "other"}}, "screener report missing or wrong for sampled input 1003"},
		{"fabricated", []Report{{X: 1010, S: "hit 1010"}, {X: 1003, S: "hit 1003"}, {X: 1007, S: "made up"}}, "fabricated report for sampled input 1007"},
		{"later report wins: right then wrong",
			[]Report{{X: 1010, S: "hit 1010"}, {X: 1003, S: "hit 1003"}, {X: 1010, S: "other"}}, "screener report missing or wrong for sampled input 1010"},
		{"later report wins: wrong then right",
			[]Report{{X: 1010, S: "other"}, {X: 1003, S: "hit 1003"}, {X: 1010, S: "hit 1010"}}, ""},
	} {
		var tr taskRun
		tr.init(sup, task)
		if got := tr.crossCheckReports(task, &sharedWorkload{f: f, screener: f.Screener()}, indices, tc.reports); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
		if tc.want == "" && tr.evals != int64(len(indices)) {
			t.Errorf("%s: charged %d evaluations for %d samples", tc.name, tr.evals, len(indices))
		}
	}
}

// screenedFunction swaps a workload's screener for a scripted one.
type screenedFunction struct {
	workload.Function
	screener workload.Screener
}

func (f screenedFunction) Screener() workload.Screener { return f.screener }
