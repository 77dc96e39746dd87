package main

import (
	"fmt"
	"io"

	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/grid"
)

// commSamples is the paper's example sample count.
const commSamples = 50

// commRow is one domain size of the communication-cost comparison:
// per-participant upload bytes, measured from live protocol runs as each
// task's tagged message bytes — what the scheme sends, however the session
// frames it — and predicted by the two cost models.
type commRow struct {
	n               int
	naive           int64   // measured, full upload
	cbs, nicbs      float64 // measured, mean per task over commTasks tasks
	paperModel      int64   // analysis.CBSCommunicationBytes: m separate audit paths
	multiproofModel float64 // analysis.CBSMultiproofBytes: what the response encodes
}

// commTasks is how many tasks a measured CBS figure averages over: the
// multiproof's size depends on where the samples fall, a few percent either
// way for one task.
const commTasks = 32

func measureCommRow(n int) (commRow, error) {
	row := commRow{
		n:               n,
		paperModel:      analysis.CBSCommunicationBytes(int64(n), 8, 32, commSamples),
		multiproofModel: analysis.CBSMultiproofBytes(int64(n), 8, 32, commSamples),
	}
	naive, err := measureUpload(grid.SchemeSpec{Kind: grid.SchemeNaive, M: commSamples}, n, 1)
	if err != nil {
		return row, err
	}
	row.naive = int64(naive)
	if row.cbs, err = measureUpload(grid.SchemeSpec{Kind: grid.SchemeCBS, M: commSamples}, n, commTasks); err != nil {
		return row, err
	}
	row.nicbs, err = measureUpload(grid.SchemeSpec{Kind: grid.SchemeNICBS, M: commSamples, ChainIters: 1}, n, commTasks)
	return row, err
}

// runComm reproduces the communication-cost comparison of Sections 1 and 3:
// the per-participant upload under the naive full-upload scheme is O(n),
// under CBS O(m log n) — the paper's model of m separate audit paths — and
// under the one multiproof the response actually carries, that less every
// sibling the paths share. The 2^40 and 2^62 rows are the analytic models
// (the paper's "16 million terabytes" headline).
func runComm(w io.Writer) error {
	fmt.Fprintf(w, "per-participant upload bytes, m = %d samples, 8-byte results\n", commSamples)
	fmt.Fprintf(w, "(cbs columns: the paper's m·log n model, the multiproof model, measured mean of %d tasks)\n\n", commTasks)
	fmt.Fprintf(w, "%10s %14s %12s %12s %12s %14s %10s\n",
		"n", "naive (meas.)", "cbs (paper)", "cbs (multi)", "cbs (meas.)", "ni-cbs (meas.)", "naive/cbs")
	for _, n := range []int{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		row, err := measureCommRow(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %14d %12d %12.0f %12.0f %14.0f %9.1fx\n",
			row.n, row.naive, row.paperModel, row.multiproofModel, row.cbs, row.nicbs, float64(row.naive)/row.cbs)
	}

	writeCommExtrapolation(w)
	fmt.Fprintln(w, "\npaper headline (§3): a 2^64-input task at 1 byte/result uploads 2^64 B")
	fmt.Fprintln(w, "≈ 16.8 million terabytes under any full-upload scheme; CBS with m=50")
	fmt.Fprintln(w, "uploads ~100KB. The paper's model puts the crossover near n ≈ 2^11; with")
	fmt.Fprintln(w, "one multiproof per response the measured one sits below the first row.")
	return nil
}

// writeCommExtrapolation prints the analytic rows past what can be run.
func writeCommExtrapolation(w io.Writer) {
	fmt.Fprintln(w, "\nanalytic extrapolation (32-byte digests):")
	fmt.Fprintf(w, "%10s %20s %16s %16s\n", "n", "naive bytes", "cbs (paper)", "cbs (multi)")
	for _, logN := range []int{40, 62} {
		n := int64(1) << logN
		naive := analysis.NaiveCommunicationBytes(n, 8)
		cbs := analysis.CBSCommunicationBytes(n, 8, 32, commSamples)
		multi := analysis.CBSMultiproofBytes(n, 8, 32, commSamples)
		fmt.Fprintf(w, "%9s2^%-2d %20.0f %16d %16.0f\n", "", logN, naive, cbs, multi)
	}
}

// measureUpload runs honest tasks under the spec and returns the mean
// tagged bytes per task the supervisor received (the participant's upload).
func measureUpload(spec grid.SchemeSpec, n, tasks int) (float64, error) {
	report, err := grid.RunSim(grid.SimConfig{
		Spec:     spec,
		Workload: "synthetic",
		Seed:     9,
		TaskSize: n,
		Tasks:    tasks,
		Honest:   1,
	})
	if err != nil {
		return 0, err
	}
	return float64(report.TaskBytesRecv) / float64(tasks), nil
}
