package grid

// Supervisor-side per-task protocol state machine.
//
// PR 2 split a task's lifecycle into prepare/exchange/settle but kept the
// wire phase implicit in a goroutine's call stack: a transport error unwound
// the stack and the task — challenge randomness already consumed, messages
// already received — was lost with it. This file makes the exchange a
// first-class, resumable state: an explicit phase plus every payload
// received and every challenge issued so far. The state lives on the heap
// (in preparedTask), detaches from a dead protoConn, and re-attaches to a
// fresh connection through the msgResume handshake, which tells the
// participant exactly which messages to replay or re-derive from its
// deterministic prover state.
//
// Determinism contract: the task's private randomness stream (taskRun.rng)
// advances exactly once per protocol point — ringers at prepare, the
// interactive challenge when the commitment arrives, the naive sample at
// decide — regardless of how many connections the exchange spans. A faulty
// run that resumes mid-protocol therefore reaches the same verdict, byte
// for byte, as a clean run with equal seeds.

import (
	"errors"
	"fmt"

	"uncheatgrid/internal/baseline"
	"uncheatgrid/internal/core"
	"uncheatgrid/internal/hashchain"
	"uncheatgrid/internal/transport"
)

// exchangePhase is the supervisor's position in one task's wire protocol.
type exchangePhase uint8

const (
	// phaseAwaitCommit waits for the CBS commitment.
	phaseAwaitCommit exchangePhase = iota + 1
	// phaseAwaitUpload waits for the full-result upload (single frame or
	// chunk stream) of the naive and double-check schemes.
	phaseAwaitUpload
	// phaseAwaitHits waits for the ringer scheme's hit list.
	phaseAwaitHits
	// phaseAwaitReports waits for the screened-result report list every
	// scheme sends after its primary payload.
	phaseAwaitReports
	// phaseSendChallenge owes the participant an interactive CBS challenge.
	phaseSendChallenge
	// phaseAwaitProofs waits for the CBS audit-path response.
	phaseAwaitProofs
	// phaseDecide has every input; verification runs without touching the
	// wire.
	phaseDecide
	// phaseVerdict owes the participant the verdict.
	phaseVerdict
	// phaseAwaitVerdictAck waits for the participant to acknowledge the
	// verdict; an unacked verdict is re-delivered after a resume, so a
	// delivery frame lost to a fault cannot leave the worker's counters
	// stale.
	phaseAwaitVerdictAck
	// phaseDone is terminal.
	phaseDone
)

// exchangeState is the serializable wire-phase record of one task: the
// current phase, the payloads received, and the challenge issued. Everything
// a replacement connection needs to resume is derived from it.
type exchangeState struct {
	phase exchangePhase
	// announced is set once an assignment reached a connection; later
	// (re-)attachments announce with msgResume instead.
	announced bool
	// received is set on the first ingested participant message: from then
	// on the attempt is bound to the peer that produced it and must resume
	// on a connection to the same participant.
	received bool

	// CBS / NI-CBS.
	commitment core.Commitment
	haveCommit bool
	verifier   *core.Verifier
	challenge  core.Challenge
	// challengePayload holds the marshaled interactive challenge once
	// drawn; resumes replay these exact bytes instead of redrawing.
	challengePayload []byte
	proofs           core.Response
	haveProofs       bool

	// Naive / double-check uploads.
	chunkBuf    []byte
	chunks      uint64
	results     [][]byte
	resultsDone bool

	// Ringer.
	hits     []uint64
	haveHits bool

	haveReports bool
}

// initialPhase maps a scheme to the first participant message it expects.
func initialPhase(kind SchemeKind) exchangePhase {
	switch kind {
	case SchemeNaive, SchemeDoubleCheck:
		return phaseAwaitUpload
	case SchemeRinger:
		return phaseAwaitHits
	default:
		return phaseAwaitCommit
	}
}

// resumeState summarizes the exchange for the msgResume handshake.
func (st *exchangeState) resumeState(a assignment) resumeMsg {
	return resumeMsg{
		Assignment:  a,
		HaveCommit:  st.haveCommit,
		HaveReports: st.haveReports,
		HaveProofs:  st.haveProofs,
		HaveHits:    st.haveHits,
		Chunks:      st.chunks,
		ResultsDone: st.resultsDone,
		Challenge:   st.challengePayload,
	}
}

// runExchange drives pt's wire phases on conn: announce the task (a fresh
// assignment or a resume handshake), ingest participant messages, and emit
// the challenge and verdict when due. It returns nil once the task reaches
// its terminal phase. On error the state survives in pt; calling runExchange
// again with a fresh connection resumes mid-protocol instead of restarting.
func (s *Supervisor) runExchange(conn protoConn, pt *preparedTask) error {
	st := &pt.st
	if err := pt.announce(conn); err != nil {
		return err
	}
	for {
		switch st.phase {
		case phaseSendChallenge:
			if err := pt.issueChallenge(conn); err != nil {
				return err
			}
		case phaseDecide:
			if err := pt.decide(); err != nil {
				return err
			}
		case phaseVerdict:
			if err := conn.Send(verdictMsg(pt.outcome)); err != nil {
				return err
			}
			st.phase = phaseAwaitVerdictAck
		case phaseDone:
			return nil
		default:
			msg, err := conn.Recv()
			if err != nil {
				return err
			}
			if err := pt.ingest(msg); err != nil {
				return err
			}
		}
	}
}

// announce (re-)introduces the task on conn: a fresh msgAssign the first
// time, a msgResume replaying the supervisor's position on every later
// connection.
func (pt *preparedTask) announce(conn protoConn) error {
	st := &pt.st
	if !st.announced {
		if err := conn.Send(transport.Message{Type: msgAssign, Payload: encodeAssignment(pt.assign)}); err != nil {
			return err
		}
		st.announced = true
		return nil
	}
	resume := transport.Message{Type: msgResume, Payload: encodeResume(st.resumeState(pt.assign))}
	if st.phase == phaseAwaitVerdictAck {
		// A verdict sent but never acknowledged may have been lost with the
		// old connection; re-deliver it. It is the one supervisor message
		// that follows the resume with no participant reply between, so the
		// two share a frame: a link that delivered the verdict without the
		// resume would name a task the participant's new session was never
		// given. The participant counts each task's verdict at most once, so
		// a redundant re-delivery is harmless.
		return conn.SendPair(resume, verdictMsg(pt.outcome))
	}
	if err := conn.Send(resume); err != nil {
		return err
	}
	// The resume payload replays any challenge already issued, so a pending
	// challenge send is satisfied by the handshake itself.
	if st.phase == phaseSendChallenge && st.challengePayload != nil {
		st.phase = phaseAwaitProofs
	}
	return nil
}

// issueChallenge draws the interactive CBS challenge exactly once and sends
// it. A resumed task that already drew its challenge replays the same bytes,
// keeping the randomness stream — and with it the verdict — identical to a
// clean run.
func (pt *preparedTask) issueChallenge(conn protoConn) error {
	st := &pt.st
	if st.challengePayload == nil {
		indices, err := st.verifier.AppendChallenge(pt.kit.challenge[:0], pt.tr.sup.cfg.Spec.M)
		if err != nil {
			return err
		}
		pt.kit.challenge = indices
		ch := core.Challenge{Indices: indices}
		payload, err := ch.MarshalBinary()
		if err != nil {
			return err
		}
		st.challenge = ch
		st.challengePayload = payload
	}
	if err := conn.Send(transport.Message{Type: msgChallenge, Payload: st.challengePayload}); err != nil {
		return err
	}
	st.phase = phaseAwaitProofs
	return nil
}

// ingest advances the state machine with one participant message. Only the
// message kind the current phase expects is legal.
func (pt *preparedTask) ingest(msg transport.Message) error {
	st := &pt.st
	var err error
	switch {
	case st.phase == phaseAwaitCommit && msg.Type == msgCommit:
		err = pt.ingestCommit(msg.Payload)
	case st.phase == phaseAwaitUpload && msg.Type == msgResults:
		err = pt.ingestResults(msg.Payload)
	case st.phase == phaseAwaitUpload && msg.Type == msgResultChunk:
		err = pt.ingestChunk(msg.Payload)
	case st.phase == phaseAwaitHits && msg.Type == msgRingerHits:
		err = pt.ingestHits(msg.Payload)
	case st.phase == phaseAwaitReports && msg.Type == msgReports:
		err = pt.ingestReports(msg.Payload)
	case st.phase == phaseAwaitProofs && msg.Type == msgProofs:
		err = pt.ingestProofs(msg.Payload)
	case st.phase == phaseAwaitVerdictAck && msg.Type == msgVerdictAck:
		if len(msg.Payload) != 0 {
			return fmt.Errorf("%w: verdict ack with %d payload bytes", ErrBadPayload, len(msg.Payload))
		}
		st.phase = phaseDone
	default:
		return fmt.Errorf("%w: got type %d in exchange phase %d",
			ErrUnexpectedMessage, msg.Type, st.phase)
	}
	if err == nil {
		st.received = true
	}
	return err
}

func (pt *preparedTask) ingestCommit(payload []byte) error {
	st := &pt.st
	if err := st.commitment.UnmarshalInto(pt.kit.root, payload); err != nil {
		return fmt.Errorf("%w: commitment: %v", ErrBadPayload, err)
	}
	pt.kit.root = st.commitment.Root
	st.haveCommit = true
	st.phase = phaseAwaitReports
	return nil
}

func (pt *preparedTask) ingestResults(payload []byte) error {
	st := &pt.st
	if st.chunks > 0 {
		return fmt.Errorf("%w: whole-frame upload after %d chunks", ErrUnexpectedMessage, st.chunks)
	}
	results, err := decodeResults(payload)
	if err != nil {
		return err
	}
	st.results = results
	st.resultsDone = true
	st.phase = phaseAwaitReports
	return nil
}

func (pt *preparedTask) ingestChunk(payload []byte) error {
	st := &pt.st
	c, err := decodeChunk(payload)
	if err != nil {
		return err
	}
	if c.Seq != st.chunks {
		return fmt.Errorf("%w: upload chunk %d, want %d", ErrUnexpectedMessage, c.Seq, st.chunks)
	}
	if int64(len(st.chunkBuf))+int64(len(c.Data)) > maxUploadBytes {
		return fmt.Errorf("%w: chunked upload exceeds %d bytes", ErrBadPayload, maxUploadBytes)
	}
	st.chunkBuf = append(st.chunkBuf, c.Data...)
	st.chunks++
	if !c.Final {
		return nil
	}
	results, err := decodeResults(st.chunkBuf)
	if err != nil {
		return err
	}
	st.results = results
	st.chunkBuf = nil
	st.resultsDone = true
	st.phase = phaseAwaitReports
	return nil
}

func (pt *preparedTask) ingestHits(payload []byte) error {
	st := &pt.st
	hits, err := decodeIndices(payload)
	if err != nil {
		return err
	}
	st.hits = hits
	st.haveHits = true
	st.phase = phaseAwaitReports
	return nil
}

func (pt *preparedTask) ingestReports(payload []byte) error {
	st := &pt.st
	reports, err := decodeReports(payload)
	if err != nil {
		return err
	}
	pt.outcome.Reports = reports
	st.haveReports = true
	return pt.afterReports()
}

// afterReports routes the exchange onward once the report list is in: CBS
// validates the commitment and resolves its challenge; the upload and ringer
// schemes have everything and move to the decision.
func (pt *preparedTask) afterReports() error {
	st := &pt.st
	spec := pt.tr.sup.cfg.Spec
	task := pt.assign.Task
	switch spec.Kind {
	case SchemeCBS, SchemeNICBS:
		if st.commitment.N != task.N {
			pt.outcome.Verdict = Verdict{Reason: fmt.Sprintf("committed %d leaves for a task of %d", st.commitment.N, task.N)}
			st.phase = phaseVerdict
			return nil
		}
		if err := pt.kit.verifier.Reset(st.commitment, core.WithRand(&pt.tr.rng)); err != nil {
			return err
		}
		st.verifier = &pt.kit.verifier
		if spec.Kind == SchemeNICBS {
			chain, err := hashchain.New(spec.ChainIters)
			if err != nil {
				return err
			}
			st.challenge.Indices, err = chain.SampleIndices(st.commitment.Root, spec.M, st.commitment.N)
			if err != nil {
				return err
			}
			st.phase = phaseAwaitProofs
			return nil
		}
		st.phase = phaseSendChallenge
		return nil
	default:
		st.phase = phaseDecide
		return nil
	}
}

func (pt *preparedTask) ingestProofs(payload []byte) error {
	st := &pt.st
	st.haveProofs = true
	// The proof's values and digests alias the payload — the session's
	// private copy of it (transport/pool.go), kept alive by the proof —
	// where core.Response.UnmarshalBinary would copy it once more; its index
	// list and headers are the audit kit's.
	if err := st.proofs.Proof.UnmarshalAliasedInto(&pt.kit.scratch, payload); err != nil {
		pt.outcome.Verdict = Verdict{Reason: fmt.Sprintf("undecodable proofs: %v", err)}
		st.phase = phaseVerdict
		return nil
	}
	st.phase = phaseDecide
	return nil
}

// decide runs the scheme's verification over the collected inputs. It
// sends nothing, runs its verification exactly once per task (the phase
// moves on), and charges its evaluations to the task's budget — all of
// which keeps resumed verdicts identical to clean ones.
func (pt *preparedTask) decide() error {
	pt.recordStreamDigest()
	st := &pt.st
	tr := &pt.tr
	task := pt.assign.Task
	switch tr.sup.cfg.Spec.Kind {
	case SchemeCBS, SchemeNICBS:
		if verifyErr := st.verifier.Verify(st.challenge, &st.proofs, pt.checkOutput); verifyErr != nil {
			var cheatErr *core.CheatError
			if errors.As(verifyErr, &cheatErr) {
				pt.outcome.Verdict = Verdict{Reason: verifyErr.Error()}
				pt.outcome.CheatIndex = int64(cheatErr.Index)
			} else {
				pt.outcome.Verdict = Verdict{Reason: fmt.Sprintf("protocol violation: %v", verifyErr)}
			}
			st.phase = phaseVerdict
			return nil
		}
		pt.outcome.Verdict = Verdict{Accepted: true}
		if tr.sup.cfg.CrossCheckReports {
			if reason := tr.crossCheckReports(task, pt.work, st.challenge.Indices, pt.outcome.Reports); reason != "" {
				pt.outcome.Verdict = Verdict{Reason: reason}
			}
		}
		st.phase = phaseVerdict
		return nil

	case SchemeNaive:
		sampler, err := baseline.NewNaiveSampling(tr.sup.cfg.Spec.M, &tr.rng)
		if err != nil {
			return err
		}
		verifyErr := sampler.Verify(int(task.N), st.results, pt.checkOutput)
		var sampleErr *baseline.SampleError
		switch {
		case verifyErr == nil:
			pt.outcome.Verdict = Verdict{Accepted: true}
		case errors.As(verifyErr, &sampleErr):
			pt.outcome.Verdict = Verdict{Reason: verifyErr.Error()}
			pt.outcome.CheatIndex = int64(sampleErr.Index)
		default:
			pt.outcome.Verdict = Verdict{Reason: fmt.Sprintf("protocol violation: %v", verifyErr)}
		}
		st.phase = phaseVerdict
		return nil

	case SchemeDoubleCheck:
		// The participant is sent a receipt for its upload; the ruling on it
		// is the group's comparison, which the stream runs once every
		// replica settled (dispatcher.vote).
		pt.outcome.Verdict = Verdict{Accepted: true}
		st.phase = phaseVerdict
		return nil

	case SchemeRinger:
		// Hits arrive as absolute inputs; secrets are domain-relative.
		relative := make([]uint64, 0, len(st.hits))
		for _, x := range st.hits {
			if x >= task.Start {
				relative = append(relative, x-task.Start)
			}
		}
		verifyErr := pt.ringers.Verify(relative)
		var sampleErr *baseline.SampleError
		switch {
		case verifyErr == nil:
			pt.outcome.Verdict = Verdict{Accepted: true}
		case errors.As(verifyErr, &sampleErr):
			pt.outcome.Verdict = Verdict{Reason: verifyErr.Error()}
			pt.outcome.CheatIndex = int64(sampleErr.Index)
		default:
			pt.outcome.Verdict = Verdict{Reason: fmt.Sprintf("protocol violation: %v", verifyErr)}
		}
		st.phase = phaseVerdict
		return nil
	}
	return fmt.Errorf("%w: scheme %v", ErrBadConfig, tr.sup.cfg.Spec.Kind)
}
