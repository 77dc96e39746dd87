package grid

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"uncheatgrid/internal/core"
	"uncheatgrid/internal/transport"
)

// challengeTap records, per task ID, the interactive challenge a supervisor
// sends: it decodes every outgoing batch frame the way the participant will.
type challengeTap struct {
	transport.Conn
	mu   *sync.Mutex
	seen map[uint64][]uint64
}

func (c *challengeTap) Send(m transport.Message) error {
	if m.Type == msgBatch {
		msgs, err := decodeBatch(nil, m.Payload)
		if err != nil {
			return err
		}
		for _, tm := range msgs {
			if tm.Type != msgChallenge {
				continue
			}
			var ch core.Challenge
			if err := ch.UnmarshalBinary(tm.Payload); err != nil {
				return err
			}
			c.mu.Lock()
			c.seen[tm.TaskID] = ch.Indices
			c.mu.Unlock()
		}
	}
	return c.Conn.Send(m)
}

// drawnChallenges runs tasks through a fresh supervisor pool of the given
// shape and returns the challenge each task ID was sent.
func drawnChallenges(t *testing.T, seed int64, conns, workers, window int, tasks []Task) map[uint64][]uint64 {
	t.Helper()
	raw, shutdown := poolFixture(t, conns, func(int) ProducerFactory { return HonestFactory })
	var mu sync.Mutex
	seen := make(map[uint64][]uint64)
	tapped := make([]transport.Conn, len(raw))
	for i, c := range raw {
		tapped[i] = &challengeTap{Conn: c, mu: &mu, seen: seen}
	}
	pool, err := NewSupervisorPool(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: seed}, workers)
	if err != nil {
		t.Fatalf("NewSupervisorPool: %v", err)
	}
	stream, err := pool.RunTaskSource(context.Background(), tapped, SliceTaskSource(tasks), window)
	if err != nil {
		t.Fatalf("RunTaskSource: %v", err)
	}
	for so := range stream.Outcomes() {
		if !so.Outcome.Verdict.Accepted {
			t.Errorf("honest task %d rejected: %s", so.Outcome.Task.ID, so.Outcome.Verdict.Reason)
		}
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	shutdown()
	return seen
}

// TestChallengeDeterminismAcrossScheduling is exchange.go's determinism
// contract for the task randomness source: equal supervisor seed and task ID
// give the equal challenge whatever the pool size, connection count or
// session window, and it is the stream taskSeed names, nothing else.
func TestChallengeDeterminismAcrossScheduling(t *testing.T) {
	const seed, n = 42, 100 // n not a power of two: rejection sampling runs
	tasks := poolTasks(24, n)
	var want map[uint64][]uint64
	for _, shape := range []struct{ conns, workers, window int }{
		{1, 1, 1}, {1, 1, 8}, {2, 2, 1}, {2, 2, 8}, {8, 8, 1}, {8, 8, 8},
	} {
		got := drawnChallenges(t, seed, shape.conns, shape.workers, shape.window, tasks)
		if len(got) != len(tasks) {
			t.Fatalf("shape %+v: saw %d challenges for %d tasks", shape, len(got), len(tasks))
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shape %+v drew different challenges than {1 1 1}", shape)
		}
	}

	// A second supervisor with the seed draws, task by task, from the
	// generator taskSeed names.
	for _, task := range tasks {
		v, err := core.NewVerifier(core.Commitment{Root: []byte{1}, N: n},
			core.WithRand(rand.New(&taskSource{state: uint64(taskSeed(seed, task.ID))})))
		if err != nil {
			t.Fatalf("NewVerifier: %v", err)
		}
		ch, err := v.Challenge(8)
		if err != nil {
			t.Fatalf("Challenge: %v", err)
		}
		if !reflect.DeepEqual(ch.Indices, want[task.ID]) {
			t.Fatalf("task %d was challenged %v, its seed's stream gives %v", task.ID, want[task.ID], ch.Indices)
		}
	}

	// Different task IDs, and different supervisor seeds, give different
	// streams.
	distinct := make(map[string]uint64)
	for id, indices := range want {
		key := fmt.Sprint(indices)
		if other, dup := distinct[key]; dup {
			t.Fatalf("tasks %d and %d drew the same challenge %v", id, other, indices)
		}
		distinct[key] = id
	}
	other := drawnChallenges(t, seed+1, 2, 2, 8, tasks)
	same := 0
	for id := range want {
		if reflect.DeepEqual(other[id], want[id]) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d of %d tasks drew the same challenge under supervisor seeds %d and %d", same, len(want), seed, seed+1)
	}
}

// chiSquare returns Pearson's statistic of counts against a uniform
// expectation.
func chiSquare(counts []int, draws int) float64 {
	expected := float64(draws) / float64(len(counts))
	var chi float64
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// TestTaskSourceChallengesUniform checks the quality that matters to the
// detection guarantee: sample indices uniform over a domain that is not a
// power of two, both along one task's stream and — the way the grid really
// consumes the source, m draws from each of very many streams — across the
// first draws of consecutive task IDs. 1000 buckets, 1e5 draws: chi-square
// has 999 degrees of freedom, mean 999 and standard deviation 44.7; the
// band is five deviations either side (a too-even spread is as wrong as a
// lumpy one). Seeds are fixed, so the test cannot flake.
func TestTaskSourceChallengesUniform(t *testing.T) {
	const n, draws, m = 1000, 100000, 8
	const lo, hi = 999 - 5*44.7, 999 + 5*44.7
	challenge := func(taskID uint64, count int) []uint64 {
		v, err := core.NewVerifier(core.Commitment{Root: []byte{1}, N: n},
			core.WithRand(rand.New(&taskSource{state: uint64(taskSeed(7, taskID))})))
		if err != nil {
			t.Fatalf("NewVerifier: %v", err)
		}
		ch, err := v.Challenge(count)
		if err != nil {
			t.Fatalf("Challenge: %v", err)
		}
		return ch.Indices
	}

	along := make([]int, n)
	for _, idx := range challenge(1, draws) {
		along[idx]++
	}
	if chi := chiSquare(along, draws); chi < lo || chi > hi {
		t.Errorf("one stream: chi-square %.1f outside [%.1f, %.1f]", chi, lo, hi)
	}

	across := make([]int, n)
	for id := uint64(0); id < draws/m; id++ {
		for _, idx := range challenge(id, m) {
			across[idx]++
		}
	}
	if chi := chiSquare(across, draws); chi < lo || chi > hi {
		t.Errorf("first %d draws of %d streams: chi-square %.1f outside [%.1f, %.1f]", m, draws/m, chi, lo, hi)
	}
}

// TestTaskSourceImplementsSource64 pins the rand.Source64 contract the
// *rand.Rand wrapper relies on: Int63 is the top 63 bits of the same step,
// and Seed restarts the stream.
func TestTaskSourceImplementsSource64(t *testing.T) {
	a, b := &taskSource{state: 99}, &taskSource{state: 99}
	for i := 0; i < 100; i++ {
		if got, want := a.Int63(), int64(b.Uint64()>>1); got != want || got < 0 {
			t.Fatalf("draw %d: Int63 = %d, want %d", i, got, want)
		}
	}
	a.Seed(99)
	b.Seed(99)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Seed does not restart the stream")
	}
	// splitmix64's published first output for state 0.
	if got := (&taskSource{}).Uint64(); got != 0xe220a8397b1dcdaf {
		t.Fatalf("splitmix64(0) first output = %#x, want 0xe220a8397b1dcdaf", got)
	}
}

// TestTaskRunChallengesMatchRecorded pins the challenge a taskRun's stream
// draws — the generator held by value in the taskRun and restarted in place
// by init — to indices recorded when the taskRun still allocated a
// *rand.Rand per task: supervisor seed 42, n = 100 (rejection sampling
// runs), m = 8. One taskRun re-initialised for every task and a fresh one
// per task draw the same.
func TestTaskRunChallengesMatchRecorded(t *testing.T) {
	sup, err := NewSupervisor(SupervisorConfig{Spec: SchemeSpec{Kind: SchemeCBS, M: 8}, Seed: 42})
	if err != nil {
		t.Fatalf("NewSupervisor: %v", err)
	}
	var reused taskRun
	for _, tc := range []struct {
		id   uint64
		want []uint64
	}{
		{0, []uint64{73, 15, 73, 57, 72, 48, 38, 58}},
		{1, []uint64{96, 83, 33, 94, 31, 67, 54, 77}},
		{7, []uint64{33, 34, 33, 23, 2, 37, 80, 76}},
		{1 << 40, []uint64{57, 7, 91, 99, 76, 83, 4, 47}},
	} {
		var fresh taskRun
		for _, tr := range []*taskRun{&reused, &fresh} {
			tr.init(sup, Task{ID: tc.id})
			var v core.Verifier
			if err := v.Reset(core.Commitment{Root: []byte{1}, N: 100}, core.WithRand(&tr.rng)); err != nil {
				t.Fatalf("Verifier.Reset: %v", err)
			}
			got, err := v.AppendChallenge(nil, 8)
			if err != nil {
				t.Fatalf("AppendChallenge: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("task %d drew %v, recorded %v", tc.id, got, tc.want)
			}
		}
	}
}
