// Command gridsim runs a configurable grid-computing simulation: a
// supervisor distributing tasks over a mixed population of honest and
// cheating participants, verified with any of the implemented schemes
// (cbs, ni-cbs, naive, double-check, ringer), and prints a run report.
//
// Example:
//
//	gridsim -scheme cbs -workload password -tasks 16 -tasksize 4096 \
//	        -honest 4 -semihonest 4 -ratio 0.5 -m 33
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/grid"
	"uncheatgrid/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridsim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gridsim", flag.ContinueOnError)
	var (
		schemeName = fs.String("scheme", "cbs", "verification scheme: cbs|ni-cbs|naive|double-check|ringer")
		wlName     = fs.String("workload", "synthetic", fmt.Sprintf("workload: %v", workload.Names()))
		seed       = fs.Uint64("seed", 1, "workload and scheduling seed")
		tasks      = fs.Int("tasks", 8, "number of tasks to assign")
		taskSize   = fs.Int("tasksize", 1024, "inputs per task (|D|)")
		honest     = fs.Int("honest", 3, "honest participants")
		semiHonest = fs.Int("semihonest", 2, "semi-honest cheaters")
		malicious  = fs.Int("malicious", 0, "malicious (report-corrupting) participants")
		ratio      = fs.Float64("ratio", 0.5, "honesty ratio r of the semi-honest cheaters")
		corrupt    = fs.Float64("corrupt", 0.5, "report-corruption probability of malicious participants")
		m          = fs.Int("m", 0, "sample count (0 = derive from -epsilon via Eq. 3)")
		epsilon    = fs.Float64("epsilon", 1e-4, "target cheat-success bound when deriving m")
		chainIters = fs.Int("chainiters", 4, "hash iterations in g (NI-CBS)")
		subtree    = fs.Int("subtree", 0, "storage-bounded prover subtree height ℓ (CBS/NI-CBS)")
		replicas   = fs.Int("replicas", 3, "double-check group size")
		blacklist  = fs.Bool("blacklist", false, "stop assigning to participants after a rejection")
		crossCheck = fs.Bool("crosscheck", true, "cross-check screener reports on sampled inputs")
		pipeline   = fs.Int("pipeline", 1, "session window: task exchanges in flight per connection (1 = one at a time, the paper's dialogue)")
		broker     = fs.Bool("broker", false, "route all traffic through a GRACE-style broker hub (identity-routed relay with relay-hop batching)")
		routes     = fs.Int("routes", 0, "total multiplexed supervisor routes (0 = one per participant; needs -broker)")
		drop       = fs.Float64("drop", 0, "probability a frame silently vanishes in transit")
		garble     = fs.Float64("garble", 0, "probability a frame has one bit flipped in transit")
		reconnect  = fs.Int("reconnect", 0, "max replacement connections per participant under faults (0 = default 8)")
		faultWait  = fs.Duration("faultwait", 0, "receive watchdog that converts dropped frames into reconnects (0 = default 2s)")
		windowT    = fs.Int("windowtasks", 0, "tasks per rolling commitment window (0 = no window commitments)")
		windowM    = fs.Int("windowsamples", 0, "leaves sampled per window commit, proven by one multiproof (needs -windowtasks)")
		checkEvery = fs.Int("checkevery", 0, "tasks per durable checkpoint segment (needs -checkpoint)")
		checkDir   = fs.String("checkpoint", "", "directory for durable supervisor/participant checkpoints")
		killAfter  = fs.Int("killafter", 0, "inject a crash after this many settled tasks and restart from the last checkpoint (needs -checkevery)")
		killTarget = fs.String("killtarget", "", "what the -killafter crash takes down: supervisor (default, whole attempt) or participant (pool restored via its checkpoints while the supervisor survives)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, err := grid.ParseScheme(*schemeName)
	if err != nil {
		return err
	}
	samples := *m
	if samples == 0 {
		// Eq. 3 with the workload's own guessing probability q.
		f, err := workload.New(*wlName, *seed)
		if err != nil {
			return err
		}
		samples, err = analysis.RequiredSamples(*epsilon, *ratio, f.GuessProb())
		if err != nil {
			return fmt.Errorf("derive m from ε: %w", err)
		}
		fmt.Fprintf(w, "m = %d derived from Eq. 3 (ε=%g, r=%g, q=%g)\n",
			samples, *epsilon, *ratio, f.GuessProb())
	}

	report, err := grid.RunSim(grid.SimConfig{
		Spec: grid.SchemeSpec{
			Kind:          kind,
			M:             samples,
			ChainIters:    *chainIters,
			SubtreeHeight: *subtree,
			WindowTasks:   *windowT,
			WindowSamples: *windowM,
		},
		Workload:          *wlName,
		Seed:              *seed,
		TaskSize:          *taskSize,
		Tasks:             *tasks,
		Honest:            *honest,
		SemiHonest:        *semiHonest,
		Malicious:         *malicious,
		HonestyRatio:      *ratio,
		CorruptProb:       *corrupt,
		Replicas:          *replicas,
		Blacklist:         *blacklist,
		CrossCheckReports: *crossCheck,
		PipelineWindow:    *pipeline,
		Broker:            *broker,
		Routes:            *routes,
		DropProb:          *drop,
		GarbleProb:        *garble,
		ReconnectLimit:    *reconnect,
		FaultRecvTimeout:  *faultWait,
		CheckpointEvery:   *checkEvery,
		CheckpointDir:     *checkDir,
		KillAfter:         *killAfter,
		KillTarget:        *killTarget,
	})
	if err != nil {
		return err
	}
	printReport(w, report)
	return nil
}

func printReport(w io.Writer, report *grid.SimReport) {
	mode := fmt.Sprintf(" pipeline=%d", report.PipelineWindow)
	if report.Broker != nil {
		mode += " broker"
	}
	fmt.Fprintf(w, "scheme=%s%s tasks=%d detection=%d/%d honest-accused=%d\n",
		report.Scheme, mode, report.TasksAssigned,
		report.CheatersDetected, report.CheatersTotal, report.HonestAccused)
	fmt.Fprintf(w, "supervisor: sent=%dB recv=%dB (task messages: sent=%dB recv=%dB) verify-evals=%d\n",
		report.SupervisorBytesSent, report.SupervisorBytesRecv,
		report.TaskBytesSent, report.TaskBytesRecv, report.SupervisorEvals)
	if report.WindowsSettled > 0 || report.WindowsPending > 0 || report.WindowViolations > 0 {
		fmt.Fprintf(w, "windows: settled=%d violations=%d pending-tasks=%d\n",
			report.WindowsSettled, report.WindowViolations, report.WindowsPending)
	}
	if hub := report.Broker; hub != nil {
		fmt.Fprintf(w, "broker: relayed=%d frames (%d B)\n", hub.RelayedMsgs, hub.RelayedBytes)
		fmt.Fprintf(w, "broker mux: links=%d routes=%d control out=%d frames (%d B) in=%d frames (%d B) envelope-overhead in=%dB out=%dB\n",
			hub.MuxLinks, hub.RoutesOpened,
			hub.ControlMsgs, hub.ControlBytes,
			hub.ControlInMsgs, hub.ControlInBytes,
			hub.MuxOverheadIn, hub.MuxOverheadOut)
		names := make([]string, 0, len(hub.Routes))
		for name := range hub.Routes {
			names = append(names, name)
		}
		sort.Strings(names)
		rt := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(rt, "route\tbinds\tto-worker\tto-supervisor\tcorrupt")
		for _, name := range names {
			rs := hub.Routes[name]
			fmt.Fprintf(rt, "%s\t%d\t%d msgs %dB\t%d msgs %dB\t%d\n",
				name, rs.Binds,
				rs.ToWorker.EgressMsgs, rs.ToWorker.EgressBytes,
				rs.ToSupervisor.EgressMsgs, rs.ToSupervisor.EgressBytes,
				rs.CorruptFrames)
		}
		_ = rt.Flush()
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "participant\tbehavior\ttasks\taccepted\trejected\tf-evals\tsentB\trecvB\treconns\tblacklisted")
	for _, p := range report.Participants {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			p.ID, p.Behavior, p.Tasks, p.Accepted, p.Rejected,
			p.FEvals, p.BytesSent, p.BytesRecv, p.Reconnects, p.Blacklisted)
	}
	_ = tw.Flush()

	if len(report.Reports) > 0 {
		fmt.Fprintf(w, "screened results (%d):\n", len(report.Reports))
		limit := len(report.Reports)
		if limit > 10 {
			limit = 10
		}
		for _, rep := range report.Reports[:limit] {
			fmt.Fprintf(w, "  x=%d: %s\n", rep.X, rep.S)
		}
		if len(report.Reports) > limit {
			fmt.Fprintf(w, "  … and %d more\n", len(report.Reports)-limit)
		}
	}
}
