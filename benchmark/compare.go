package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (workload, metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// row is one line of the comparison.
type row struct {
	workload, metric string
	a, b             float64 // medians
	change           float64 // share of a by which b is worse (negative: better)
	bound, spread    float64
	verdict          string
}

// readRecords loads the untraced runs of a JSON-lines file written by -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace == 0 {
			recs = append(recs, rec)
		}
	}
	return recs, sc.Err()
}

// compareRecords applies every end-to-end metric's own bound per workload.
// A metric is worse when b's median is worse than a's by more than the
// bound; otherwise, when either side's quartile spread is wider than the
// bound, it is unresolved — unless every run of b reads better than every
// run of a. The failed row has an absolute bound of zero: any rise in the
// share of failed tasks is worse.
func compareRecords(a, b []record) []row {
	var rows []row
	for _, spec := range workloads {
		as, bs := byWorkload(a, spec.name), byWorkload(b, spec.name)
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		for _, def := range endToEnd {
			av, bv := values(as, def.name), values(bs, def.name)
			r := row{workload: spec.name, metric: def.name, bound: def.bound,
				a: median(av), b: median(bv)}
			sign := 1.0 // lower is better: a rise is worse
			if def.better == "higher" {
				sign = -1
			}
			if r.a != 0 {
				r.change = sign * (r.b - r.a) / math.Abs(r.a)
			}
			r.spread = math.Max(quartileSpread(av), quartileSpread(bv))
			switch {
			case r.change > def.bound:
				r.verdict = verdictWorse
			case r.spread > def.bound && !allBetter(av, bv, sign):
				r.verdict = verdictUnresolved
			default:
				r.verdict = verdictOK
			}
			rows = append(rows, r)
		}
		r := row{workload: spec.name, metric: "failed_share", a: failedShare(as), b: failedShare(bs), verdict: verdictOK}
		r.change = r.b - r.a
		if r.b > r.a {
			r.verdict = verdictWorse
		}
		rows = append(rows, r)
	}
	return rows
}

func byWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, 0, len(recs))
	for _, r := range recs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// allBetter reports whether every value of b is better than every value of
// a (sign +1: lower is better).
func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, v := range b {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Min(bestA, sign*v)
	}
	return worstB < bestA
}

func failedShare(recs []record) float64 {
	var failed, attempted int
	for _, r := range recs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return ratio(float64(failed), float64(attempted))
}

func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRecords(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no untraced runs", pathA)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no untraced runs", pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	rows := compareRecords(a, b)
	fmt.Fprintf(stdout, "%-13s %-19s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "a (median)", "b (median)", "worse by", "bound", "spread", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-13s %-19s %14.6g %14.6g %8.2f%% %7.2f%% %7.2f%%  %s\n",
			r.workload, r.metric, r.a, r.b, 100*r.change, 100*r.bound, 100*r.spread, r.verdict)
		if r.verdict == verdictWorse {
			code = 1
		}
	}
	return code
}
