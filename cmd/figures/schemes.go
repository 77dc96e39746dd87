package main

import (
	"fmt"
	"io"

	"uncheatgrid/internal/grid"
)

// schemeRow is one scheme's line of the comparison.
type schemeRow struct {
	scheme          string
	caught, total   int
	accused         int
	supervisorBytes int64
	workerEvals     int64
	genericF        string
	rounds          string
}

// measureSchemes runs every verification scheme on the same mixed
// population: 4 honest workers and 4 semi-honest cheaters (r = 0.5), 16
// tasks of 2048 inputs.
func measureSchemes() ([]schemeRow, error) {
	specs := []grid.SchemeSpec{
		{Kind: grid.SchemeDoubleCheck, M: 1},
		{Kind: grid.SchemeNaive, M: 33},
		{Kind: grid.SchemeRinger, M: 8},
		{Kind: grid.SchemeCBS, M: 33},
		{Kind: grid.SchemeNICBS, M: 33, ChainIters: 4},
	}
	var rows []schemeRow
	for _, spec := range specs {
		cfg := grid.SimConfig{
			Spec:         spec,
			Workload:     "synthetic",
			Seed:         1234,
			TaskSize:     2048,
			Tasks:        16,
			Honest:       4,
			SemiHonest:   4,
			HonestyRatio: 0.5,
		}
		row := schemeRow{genericF: "yes", rounds: "2"} // assignment + upload
		switch spec.Kind {
		case grid.SchemeRinger:
			cfg.Workload = "password" // ringers require one-way f
			row.genericF = "no (one-way)"
		case grid.SchemeDoubleCheck:
			cfg.Replicas = 3
		case grid.SchemeCBS:
			row.rounds = "4" // assign, commit, challenge, proofs
		case grid.SchemeNICBS:
			row.rounds = "2" // assign, commit+proofs (no challenge)
		}
		report, err := grid.RunSim(cfg)
		if err != nil {
			return nil, err
		}
		row.scheme = report.Scheme
		row.caught, row.total = report.CheatersDetected, report.CheatersTotal
		row.accused = report.HonestAccused
		// Task-tagged bytes, both directions: what the scheme's messages
		// cost, whatever frames the session packed them into.
		row.supervisorBytes = report.TaskBytesSent + report.TaskBytesRecv
		var workerEvals int64
		for _, p := range report.Participants {
			workerEvals += p.FEvals
		}
		row.workerEvals = workerEvals
		rows = append(rows, row)
	}
	return rows, nil
}

// runSchemes prints the comparison. The columns show who wins on detection
// and on communication — the paper's overall claim is that CBS matches naive
// sampling's detection at a logarithmic fraction of the traffic, without
// the one-way-f restriction of ringers or the wasted cycles of
// double-checking.
func runSchemes(w io.Writer) error {
	rows, err := measureSchemes()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%14s %10s %10s %14s %14s %12s %10s\n",
		"scheme", "caught", "accused", "supervisor B", "worker evals", "generic f?", "rounds")
	for _, row := range rows {
		fmt.Fprintf(w, "%14s %6d/%-3d %10d %14d %14d %12s %10s\n",
			row.scheme, row.caught, row.total, row.accused,
			row.supervisorBytes, row.workerEvals, row.genericF, row.rounds)
	}
	fmt.Fprintln(w, "\nexpected shape: all schemes catch r=0.5 cheaters; CBS/NI-CBS traffic is")
	fmt.Fprintln(w, "orders below naive/double-check; double-check burns ~replica× worker cycles")
	fmt.Fprintln(w, "and falsely accuses honest workers grouped with two disagreeing cheaters")
	fmt.Fprintln(w, "(no index-wise majority); ringer works only for one-way f (password search).")
	return nil
}
