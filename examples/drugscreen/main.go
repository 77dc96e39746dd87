// Drugscreen models the IBM smallpox grid the paper cites: molecule
// screening distributed through a GRACE-style broker, where the supervisor
// cannot interact with participants directly — the setting that requires
// non-interactive CBS (Section 4). The hash chain g = H^k is sized with
// Eq. 5 so the re-rolling attack costs more than honest computation.
package main

import (
	"fmt"
	"log"

	"uncheatgrid"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		taskSize = 4096
		m        = 20
		r        = 0.95 // assume cheaters shade at most 5% of the work
		fCost    = 4.0  // the synthetic docking score costs ~4 hash units
	)

	// Eq. 5: size k in g = H^k so the expected re-rolling attack costs at
	// least as much as honestly screening the whole task.
	k, err := uncheatgrid.RequiredChainIterations(taskSize, fCost, r, m)
	if err != nil {
		return err
	}
	cost, err := uncheatgrid.RerollAttackCost(taskSize, fCost, r, m, int(k))
	if err != nil {
		return err
	}
	fmt.Printf("NI-CBS sample chain: g = H^%d (Eq. 5: attack %.0f ≥ honest %.0f hash-units)\n\n",
		int(k), cost.Cheating, cost.Honest)

	// Supervisor ↔ broker hub ↔ participant, wired over in-memory pipes.
	// The worker registers its identity with the hub; the supervisor
	// attaches its own link and opens a route to that identity by name, and
	// the hub binds the pair. The hub relays without interpreting task
	// payloads; NI-CBS needs no challenge leg.
	hub := uncheatgrid.NewBrokerHub()
	defer hub.Close()

	participant, err := uncheatgrid.NewParticipant("screener-node", uncheatgrid.HonestFactory)
	if err != nil {
		return err
	}
	brokerDown, partConn := uncheatgrid.Pipe(uncheatgrid.WithPipeBuffer(8))
	if err := uncheatgrid.HelloWorker(partConn, participant.ID()); err != nil {
		return err
	}
	if err := hub.Attach(brokerDown); err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- participant.Serve(partConn) }()

	supLink, brokerUp := uncheatgrid.Pipe(uncheatgrid.WithPipeBuffer(8))
	mux, err := uncheatgrid.OpenMux(supLink, "screening-lab")
	if err != nil {
		return err
	}
	defer mux.Close()
	if err := hub.Attach(brokerUp); err != nil {
		return err
	}
	supConn, err := mux.OpenRoute(participant.ID())
	if err != nil {
		return err
	}

	supervisor, err := uncheatgrid.NewSupervisor(uncheatgrid.SupervisorConfig{
		Spec: uncheatgrid.SchemeSpec{
			Kind:       uncheatgrid.SchemeNICBS,
			M:          m,
			ChainIters: int(k),
		},
		Seed: 7,
	})
	if err != nil {
		return err
	}

	// One exchange at a time over the broker link: a session with window 1.
	session, err := supervisor.OpenSession(supConn, 1)
	if err != nil {
		return err
	}
	for taskID := uint64(0); taskID < 4; taskID++ {
		outcome, err := session.RunTask(uncheatgrid.Task{
			ID:       taskID,
			Start:    taskID * taskSize,
			N:        taskSize,
			Workload: "drugscreen",
			Seed:     2004,
		})
		if err != nil {
			return err
		}
		fmt.Printf("task %d: accepted=%v, %d B up through the broker\n",
			taskID, outcome.Verdict.Accepted, outcome.BytesRecv)
		for _, rep := range outcome.Reports {
			fmt.Printf("  %s\n", rep.S)
		}
	}

	if err := session.Close(); err != nil {
		return err
	}
	if err := supConn.Close(); err != nil {
		return err
	}
	if err := <-serveDone; err != nil {
		return err
	}
	if err := mux.Close(); err != nil {
		return err
	}
	if err := hub.Close(); err != nil {
		return err
	}
	relayed := hub.Snapshot()
	fmt.Printf("\nbroker relayed %d frames (%d B); zero supervisor→participant challenges.\n",
		relayed.RelayedMsgs, relayed.RelayedBytes)
	return nil
}
