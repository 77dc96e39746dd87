// Signalwatch runs a long-horizon SETI-style sky watch through the
// streaming supervisor. Unlike setisearch, which audits one fixed batch,
// this watch treats the spectrum as an open-ended stream: tasks are drawn
// lazily from a source (no task list is ever materialized), every
// participant folds each settled window of task digests into a rolling
// hash-chained commitment the supervisor spot-checks as the run goes, and
// the shift ends with a durable checkpoint barrier so the next shift can
// pick up exactly where this one stopped.
//
// The second half demonstrates why the checkpoints are worth carrying: a
// simulated supervisor crash mid-run restarts from the last durable
// segment and still produces the same verdicts as an uninterrupted run.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"uncheatgrid"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

const (
	participants = 3
	taskChunks   = 256 // spectrum chunks per task (|D|)
	horizon      = 48  // tasks in one watch shift
	seed         = 1977
)

func run() error {
	if err := watchShift(); err != nil {
		return err
	}
	return killAndRestart()
}

// watchShift streams one shift of the watch through the public pool API:
// lazy task source, rolling window commitments, drain checkpoint barrier.
func watchShift() error {
	spec := uncheatgrid.SchemeSpec{
		Kind: uncheatgrid.SchemeCBS, M: 12, ChainIters: 1,
		WindowTasks: 4, WindowSamples: 2,
	}
	dir, err := os.MkdirTemp("", "signalwatch-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// The source materializes nothing: task i exists only when the
	// scheduler's bounded look-ahead asks for it, so the same code drives a
	// 48-task demo or a year-long watch in O(look-ahead) memory.
	source := func(i uint64) (uncheatgrid.Task, bool) {
		if i >= horizon {
			return uncheatgrid.Task{}, false
		}
		return uncheatgrid.Task{
			ID: i, Start: i * taskChunks, N: taskChunks,
			Workload: "signal", Seed: seed,
		}, true
	}

	conns := make([]uncheatgrid.Conn, participants)
	for i := range conns {
		p, err := uncheatgrid.NewParticipant(
			fmt.Sprintf("scope-%d", i), uncheatgrid.HonestFactory,
			uncheatgrid.WithParticipantCheckpointDir(dir))
		if err != nil {
			return err
		}
		supConn, partConn := uncheatgrid.Pipe(uncheatgrid.WithPipeBuffer(8))
		conns[i] = supConn
		go func() { _ = p.Serve(partConn) }()
	}
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()

	pool, err := uncheatgrid.NewSupervisorPool(
		uncheatgrid.SupervisorConfig{Spec: spec, Seed: seed}, participants*2)
	if err != nil {
		return err
	}
	ledgers := make([]*uncheatgrid.WindowLedger, participants)
	for i := range ledgers {
		if ledgers[i], err = uncheatgrid.NewWindowLedger(spec); err != nil {
			return err
		}
	}

	stream, err := pool.RunTaskSource(context.Background(), conns, source, 4,
		uncheatgrid.WithStreamWindowSettle(ledgers),
		uncheatgrid.WithStreamDrainCheckpoint(horizon))
	if err != nil {
		return err
	}

	fmt.Printf("watching %d tasks × %d chunks across %d scopes (m=%d audits/task)\n",
		horizon, taskChunks, participants, spec.M)
	tones, accepted := 0, 0
	for so := range stream.Outcomes() {
		if so.Outcome.Verdict.Accepted {
			accepted++
		}
		for _, rep := range so.Outcome.Reports {
			tones++
			if tones <= 3 {
				fmt.Printf("  candidate: %s\n", rep.S)
			}
		}
	}
	if err := stream.Err(); err != nil {
		return err
	}

	var settled, violations uint64
	var pending int
	for _, led := range ledgers {
		stats := led.Stats()
		settled += stats.Settled
		violations += stats.Violations
		pending += stats.Pending
	}
	fmt.Printf("shift done: %d/%d accepted, %d candidate tones\n", accepted, horizon, tones)
	fmt.Printf("rolling commitments: %d windows settled, %d violations, %d tasks pending\n",
		settled, violations, pending)

	// The drain barrier left every scope durably checkpointed at the shift
	// boundary — a fresh process restores and resumes from here.
	for i := 0; i < participants; i++ {
		restored, err := uncheatgrid.NewParticipant(
			fmt.Sprintf("scope-%d", i), uncheatgrid.HonestFactory,
			uncheatgrid.WithParticipantCheckpointDir(dir))
		if err != nil {
			return err
		}
		seq, ok, err := restored.RestoreCheckpoint()
		if err != nil {
			return err
		}
		if !ok || seq != horizon {
			return fmt.Errorf("scope-%d checkpoint = (%d, %v), want (%d, true)", i, seq, ok, horizon)
		}
	}
	fmt.Printf("checkpoint barrier: all %d scopes durable at task %d\n\n", participants, horizon)
	return nil
}

// killAndRestart crashes a streaming simulation mid-run and restarts it
// from the last durable checkpoint, then checks the interrupted run ruled
// exactly like an uninterrupted one.
func killAndRestart() error {
	base := uncheatgrid.SimConfig{
		Spec: uncheatgrid.SchemeSpec{
			Kind: uncheatgrid.SchemeCBS, M: 12, ChainIters: 1,
			WindowTasks: 4, WindowSamples: 2,
		},
		Workload:       "signal",
		Seed:           seed,
		TaskSize:       128,
		Tasks:          horizon,
		Honest:         2,
		SemiHonest:     1,
		HonestyRatio:   0.5,
		PipelineWindow: 4,
	}

	clean, err := uncheatgrid.RunSim(base)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "signalwatch-ckpt-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	killed := base
	killed.CheckpointDir = dir
	killed.CheckpointEvery = 16
	killed.KillAfter = 20
	restarted, err := uncheatgrid.RunSim(killed)
	if err != nil {
		return err
	}

	fmt.Printf("crash drill: killed after %d settled tasks, restarted from checkpoint %d\n",
		killed.KillAfter, killed.CheckpointEvery)
	fmt.Printf("  clean run:     detected %d/%d cheaters, %d windows settled\n",
		clean.CheatersDetected, clean.CheatersTotal, clean.WindowsSettled)
	fmt.Printf("  restarted run: detected %d/%d cheaters, %d windows settled\n",
		restarted.CheatersDetected, restarted.CheatersTotal, restarted.WindowsSettled)
	if restarted.CheatersDetected != clean.CheatersDetected ||
		restarted.WindowsSettled != clean.WindowsSettled ||
		restarted.HonestAccused != clean.HonestAccused {
		return fmt.Errorf("restarted run diverged from the clean run")
	}
	fmt.Println("verdicts identical: the crash cost wall-clock, never correctness")
	return nil
}
