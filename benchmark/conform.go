package main

import (
	"context"
	"fmt"
	"time"

	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/grid"
	"uncheatgrid/internal/transport"
	"uncheatgrid/internal/workload"
)

// conform is the untimed phase before every measured run: the workload's
// topology plus one semi-honest participant (r = conformHonesty), a fixed
// number of tasks under pinned placement. It returns what it found wrong:
// an honest task rejected, a cheater escape count outside the binomial band
// around analysis.CheatSuccessProb, or a window that failed to settle.
//
// Cheaters stay out of the timed phases because cheat.SemiHonest.Claim
// seeds a math/rand source per guessed input — a fixture cost that would
// own the latency tail and the allocation count.
func (d *driver) conform(tr *tracer) ([]string, error) {
	span := tr.begin("conformance", -1, -1)
	defer tr.end(span)
	tasks := uint64(d.spec.conformTasks)
	if d.smoke {
		tasks = max(tasks/10, 2*uint64(d.spec.participants+1))
	}

	// The phase is not measured, so its links go unwrapped.
	st, err := d.assemble(nil, -1, 1)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rg, pool, ledgers := st.rg, st.pool, st.ledgers
	opts := []grid.StreamOption{grid.WithPinnedPlacement()}
	if ledgers != nil {
		opts = append(opts, grid.WithWindowSettle(ledgers))
	}
	if rg.ckptDir != "" {
		opts = append(opts, grid.WithDrainCheckpoint(tasks))
	}
	source := func(i uint64) (grid.Task, bool) {
		if i >= tasks {
			return grid.Task{}, false
		}
		return d.taskFor(i), true
	}
	stream, err := pool.RunTaskSource(context.Background(), rg.conns, source, d.spec.window, opts...)
	if err != nil {
		return nil, err
	}
	conns := uint64(len(rg.conns))
	index := make(map[transport.Conn]int, conns)
	for i, c := range rg.conns {
		index[c] = i
	}
	var problems []string
	var settled, cheated, escaped int
	for so := range stream.Outcomes() {
		settled++
		switch i := index[so.Conn]; {
		case rg.isCheater(i):
			cheated++
			if so.Outcome.Verdict.Accepted {
				escaped++
			}
		case !so.Outcome.Verdict.Accepted:
			problems = append(problems, fmt.Sprintf("conformance: honest task %d rejected: %s",
				so.Outcome.Task.ID, so.Outcome.Verdict.Reason))
		}
	}
	if err := stream.Err(); err != nil {
		return nil, err
	}
	if err := rg.hangup(); err != nil {
		return nil, err
	}
	if uint64(settled) != tasks {
		problems = append(problems, fmt.Sprintf("conformance: %d of %d tasks settled", settled, tasks))
	}

	f, err := workload.New(taskWorkload, d.seed)
	if err != nil {
		return nil, err
	}
	p, err := analysis.CheatSuccessProb(conformHonesty, f.GuessProb(), d.spec.scheme.M)
	if err != nil {
		return nil, err
	}
	if !withinBinomialBand(cheated, escaped, p) {
		problems = append(problems, fmt.Sprintf(
			"conformance: semi-honest participant escaped %d of %d tasks; Eq. 2 predicts %.3g per task",
			escaped, cheated, p))
	}

	if w := uint64(d.spec.scheme.WindowTasks); w > 0 {
		var got, want uint64
		for i, led := range ledgers {
			st := led.Stats()
			got += st.Settled
			if st.Violations > 0 {
				problems = append(problems, "conformance: window violation: "+st.LastViolation)
			}
			// Link i carries tasks i, i+conns, i+2·conns, …
			want += (tasks + conns - 1 - uint64(i)) / conns / w
		}
		if got != want {
			problems = append(problems, fmt.Sprintf("conformance: %d windows settled, want %d", got, want))
		}
	}
	return problems, nil
}

// setupOnce builds the whole topology, opens a stream on it and stops at
// the first draw: the time a user waits before the first task goes out —
// participants built, links dialed and accepted, hub registrations and
// route opens done, pool and sessions ready.
func (d *driver) setupOnce() (time.Duration, error) {
	start := time.Now()
	st, err := d.assemble(nil, -1, 0)
	if err != nil {
		return 0, err
	}
	defer st.close()
	rg, pool, ledgers := st.rg, st.pool, st.ledgers
	var opts []grid.StreamOption
	if d.spec.segment > 0 {
		opts = append(opts, grid.WithPinnedPlacement(), grid.WithWindowSettle(ledgers))
	}
	var took time.Duration
	source := func(uint64) (grid.Task, bool) {
		if took == 0 {
			took = time.Since(start)
		}
		return grid.Task{}, false
	}
	stream, err := pool.RunTaskSource(context.Background(), rg.conns, source, d.spec.window, opts...)
	if err != nil {
		return 0, err
	}
	for range stream.Outcomes() {
	}
	if err := stream.Err(); err != nil {
		return 0, err
	}
	if err := rg.hangup(); err != nil {
		return 0, err
	}
	return took, nil
}

// measureSetup sets up about a thousand times and returns the fast tail
// (see fastTail): one set-up is tens to hundreds of microseconds, far too
// short to report from a single sample. The pause before each one lets the
// previous set-up's goroutines exit and the processors go idle — the state a
// user sets up in; back to back, a set-up reads up to five times shorter and
// less steadily.
func (d *driver) measureSetup() (float64, error) {
	minReps, maxReps, budget := 15, 2000, 1500*time.Millisecond
	if d.smoke {
		minReps, maxReps, budget = 3, 3, 0
	}
	samples := make([]float64, 0, maxReps)
	began := time.Now()
	for len(samples) < minReps || (len(samples) < maxReps && time.Since(began) < budget) {
		time.Sleep(time.Millisecond)
		took, err := d.setupOnce()
		if err != nil {
			return 0, err
		}
		samples = append(samples, took.Seconds())
	}
	return fastTail(samples, false), nil
}
