package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// synthRuns builds one untraced record per value of tasks_per_s, every
// other end-to-end metric held at 1.
func synthRuns(workload string, failed int, rates ...float64) []record {
	recs := make([]record, len(rates))
	for i, rate := range rates {
		metrics := make(map[string]metricValue, len(endToEnd))
		for _, def := range endToEnd {
			metrics[def.name] = metricValue{Value: 1, Unit: def.unit}
		}
		metrics["tasks_per_s"] = metricValue{Value: rate, Unit: "1/s"}
		recs[i] = record{Workload: workload, Seed: uint64(i), Result: result{
			Correct: failed == 0, Attempted: 1000, Failed: failed, Metrics: metrics}}
	}
	return recs
}

func verdictOf(t *testing.T, rows []row, workload, metric string) string {
	t.Helper()
	for _, r := range rows {
		if r.workload == workload && r.metric == metric {
			return r.verdict
		}
	}
	t.Fatalf("no row for %s %s", workload, metric)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	var bound float64
	for _, def := range endToEnd {
		if def.name == "tasks_per_s" {
			bound = def.bound
		}
	}
	// around returns five runs scattered by +-0.2% about a rate that is
	// worse than 1000/s by the given share.
	around := func(worse float64) []record {
		c := 1000 * (1 - worse)
		return synthRuns("tcp_small", 0, c+1, c, c-1, c+2, c-2)
	}
	// scattered returns five runs about centre whose quartile spread is
	// twice the bound.
	scattered := func(centre float64) []record {
		step := centre * bound * 2 / 3 // q3-q1 of five evenly spaced runs is 3 steps
		return synthRuns("tcp_small", 0, centre-2*step, centre-step, centre, centre+step, centre+2*step)
	}
	steady := around(0)
	cases := []struct {
		name string
		b    []record
		want string
	}{
		{"same", around(0), verdictOK},
		{"within bound", around(bound / 2), verdictOK},
		{"beyond bound", around(bound * 1.2), verdictWorse},
		{"better", around(-0.5), verdictOK},
		// Median unchanged but the runs scatter wider than the bound.
		{"noisy", scattered(1000), verdictUnresolved},
		// Just as noisy, but every run beats every run of a.
		{"noisy but better", scattered(4000), verdictOK},
	}
	for _, c := range cases {
		rows := compareRecords(steady, c.b)
		if got := verdictOf(t, rows, "tcp_small", "tasks_per_s"); got != c.want {
			t.Errorf("%s: tasks_per_s is %s, want %s", c.name, got, c.want)
		}
		if got := verdictOf(t, rows, "tcp_small", "task_p50_ms"); got != verdictOK {
			t.Errorf("%s: an unchanged metric is %s", c.name, got)
		}
		if got := verdictOf(t, rows, "tcp_small", "failed_share"); got != verdictOK {
			t.Errorf("%s: failed_share is %s with no failures", c.name, got)
		}
	}
}

// TestCompareFailedShareRise: the failed share has an absolute bound of
// zero, so one more failed task is a regression whatever the timings say.
func TestCompareFailedShareRise(t *testing.T) {
	a := synthRuns("stream_ckpt", 0, 1000, 1000, 1000)
	b := synthRuns("stream_ckpt", 1, 1200, 1200, 1200)
	rows := compareRecords(a, b)
	if got := verdictOf(t, rows, "stream_ckpt", "failed_share"); got != verdictWorse {
		t.Errorf("failed_share rose from 0 to 1 in 1000 and is %s, want worse", got)
	}
	for _, r := range rows {
		if r.workload != "stream_ckpt" {
			t.Errorf("row for %s, which neither side ran", r.workload)
		}
	}
}

// TestCompareFiles round-trips records through -out files and checks the
// exit code follows the verdicts.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []record) string {
		path := filepath.Join(dir, name)
		for i := range recs {
			if err := appendRecord(path, &recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", synthRuns("commit_nicbs", 0, 170, 171, 169))
	same := write("same.jsonl", synthRuns("commit_nicbs", 0, 171, 170, 169))
	slow := write("slow.jsonl", synthRuns("commit_nicbs", 0, 120, 121, 119))

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", a, same}, &stdout, &stderr); code != 0 {
		t.Errorf("comparing equal runs exited %d: %s%s", code, stdout.String(), stderr.String())
	}
	if n := strings.Count(stdout.String(), "\n"); n != 1+len(endToEnd)+1 {
		t.Errorf("%d lines, want a header, one row per end-to-end metric and the failed_share row:\n%s", n, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-compare", a, slow}, &stdout, &stderr); code != 1 {
		t.Errorf("comparing against slower runs exited %d, want 1:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), verdictWorse) {
		t.Errorf("no row is %q:\n%s", verdictWorse, stdout.String())
	}
	if code := run([]string{"-compare", a}, &stdout, &stderr); code != 2 {
		t.Errorf("-compare with one file exited %d, want 2", code)
	}
}
