package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"mpcquery"
)

// ---- worker-process mode (-listen / -peers) --------------------------------

// WorkerScenario is one scenario's outcome in the worker-mode JSON.
type WorkerScenario struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Identical: the distributed Report is bit-identical to this process's
	// own in-process run of the same request.
	Identical bool `json:"identical_to_inprocess"`
}

// WorkerFile is the worker-mode JSON document, one per rank. Every rank of
// a correct group prints the same fingerprints, each verified against a
// local in-process reference — so N processes agreeing with their own
// references have all produced the one true answer.
type WorkerFile struct {
	Rank         int              `json:"rank"`
	Ranks        int              `json:"ranks"`
	AllIdentical bool             `json:"all_identical"`
	Scenarios    []WorkerScenario `json:"scenarios"`

	WireBytes          int64 `json:"wire_bytes"`
	PayloadBytes       int64 `json:"payload_bytes"`
	BilledPayloadBytes int64 `json:"billed_payload_bytes"`
	ChargedBits        int64 `json:"charged_bits"`
	DataFrames         int64 `json:"data_frames"`
	CtrlFrames         int64 `json:"ctrl_frames"`
	Resends            int64 `json:"resends"`
	// Restarts counts whole-suite replays after a lost peer (-maxrestarts).
	Restarts int `json:"restarts"`
}

// workerMain runs mpcload as one rank of a real multi-process worker
// group: it joins the group at listen (= peers[rank]), executes the full
// scenario suite through the distributed runtime, and verifies every
// Report bit-identical to an in-process run of the same request. Exit 0
// means this rank's distributed results are exactly the single-process
// truth; all ranks printing the same fingerprints means the group agrees.
//
// maxRestarts > 0 makes the worker fault-tolerant: when a peer is lost
// mid-suite (ErrPeerUnavailable — a killed process, a dropped link), the
// rank closes its session, waits out one round timeout so every survivor
// has also failed out of the wedged round, then re-dials the group and
// replays the whole suite on the fresh session. The restart is symmetric:
// every rank runs the same loop, so all survivors (and a respawned
// replacement for the dead rank) converge on a new group whose cluster
// identities realign at 0 — determinism makes the replay's Reports
// bit-identical to an uninterrupted run.
func workerMain(listen, peers string, m, p int, debugAddr string, maxRestarts int, roundTimeout time.Duration) int {
	if debugAddr != "" {
		// The process-wide debug endpoint: engine/kernel/transport counters
		// in Prometheus text plus pprof. Bind failure is reported but not
		// fatal — observability never takes a worker down.
		ln, err := net.Listen("tcp", debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcload: debug listener %s: %v\n", debugAddr, err)
		} else {
			fmt.Fprintf(os.Stderr, "mpcload: debug endpoint on http://%s/metrics\n", ln.Addr())
			srv := &http.Server{Handler: mpcquery.DebugHandler()}
			defer srv.Close()
			go srv.Serve(ln)
		}
	}
	addrs := strings.Split(peers, ",")
	rank := -1
	for i, a := range addrs {
		if strings.TrimSpace(a) == listen {
			rank = i
		}
		addrs[i] = strings.TrimSpace(a)
	}
	if rank < 0 {
		fmt.Fprintf(os.Stderr, "mpcload: -listen %q not found in -peers %q\n", listen, peers)
		return 2
	}
	var rtOpts []mpcquery.RuntimeOption
	settle := time.Second
	if roundTimeout > 0 {
		rtOpts = append(rtOpts, mpcquery.WithRoundTimeout(roundTimeout))
		settle = roundTimeout
	}

	var lastErr error
	for attempt := 0; attempt <= maxRestarts; attempt++ {
		if attempt > 0 {
			// Settle past one round timeout before re-dialing so every
			// survivor has failed out of the wedged round and released its
			// old session; then the whole group converges on a fresh dial.
			time.Sleep(settle + 250*time.Millisecond)
		}
		file, st, err := workerAttempt(rank, addrs, m, p, rtOpts)
		if err == nil {
			file.Restarts = attempt
			b, _ := json.MarshalIndent(file, "", "  ")
			os.Stdout.Write(append(b, '\n'))
			if !file.AllIdentical {
				fmt.Fprintf(os.Stderr, "mpcload: rank %d: FAIL: distributed Reports diverged from in-process runs\n", rank)
				return 1
			}
			if st.ChargedBits() > st.BilledPayloadBytes*8 {
				fmt.Fprintf(os.Stderr, "mpcload: rank %d: FAIL: charged %d bits exceed billed payload %d bits\n",
					rank, st.ChargedBits(), st.BilledPayloadBytes*8)
				return 1
			}
			fmt.Fprintf(os.Stderr, "mpcload: rank %d/%d: %d scenarios identical, %d bytes on the wire for %d charged bits, %d restarts\n",
				rank, len(addrs), len(file.Scenarios), st.WireBytes, st.ChargedBits(), attempt)
			return 0
		}
		lastErr = err
		if !errors.Is(err, mpcquery.ErrPeerUnavailable) && !errors.Is(err, mpcquery.ErrRuntimeClosed) {
			fmt.Fprintf(os.Stderr, "mpcload: rank %d: %v\n", rank, err)
			return 1
		}
		if attempt < maxRestarts {
			fmt.Fprintf(os.Stderr, "mpcload: rank %d: peer lost (%v); restarting suite (%d/%d)\n",
				rank, err, attempt+1, maxRestarts)
		}
	}
	fmt.Fprintf(os.Stderr, "mpcload: rank %d: gave up after %d restarts: %v\n", rank, maxRestarts, lastErr)
	return 1
}

// workerAttempt runs one complete pass of the suite on a fresh session:
// dial, run every scenario distributed + in-process, close. Any error —
// including a lost peer — tears the session down so the caller can settle
// and retry from a clean slate.
func workerAttempt(rank int, addrs []string, m, p int, rtOpts []mpcquery.RuntimeOption) (WorkerFile, mpcquery.TransportWireStats, error) {
	var st mpcquery.TransportWireStats
	file := WorkerFile{Rank: rank, Ranks: len(addrs), AllIdentical: true}
	rt, err := mpcquery.DialRuntime(rank, addrs, rtOpts...)
	if err != nil {
		return file, st, err
	}
	defer rt.Close()

	for _, sc := range buildScenarios(m) {
		opts := append([]mpcquery.RunOption{
			mpcquery.WithStrategy(sc.strategy), mpcquery.WithServers(sc.p(p)), mpcquery.WithSeed(3),
		}, sc.extra...)
		rep, err := mpcquery.Run(sc.q, sc.db, append(opts, mpcquery.WithRuntime(rt))...)
		if err != nil {
			return file, st, fmt.Errorf("%s: %w", sc.name, err)
		}
		ref, err := mpcquery.Run(sc.q, sc.db, opts...)
		if err != nil {
			return file, st, fmt.Errorf("%s (in-process reference): %w", sc.name, err)
		}
		ws := WorkerScenario{
			Name:        sc.name,
			Fingerprint: rep.Fingerprint(),
			Identical:   rep.Fingerprint() == ref.Fingerprint(),
		}
		file.AllIdentical = file.AllIdentical && ws.Identical
		file.Scenarios = append(file.Scenarios, ws)
	}
	st = rt.WireStats()
	file.WireBytes = st.WireBytes
	file.PayloadBytes = st.PayloadBytes
	file.BilledPayloadBytes = st.BilledPayloadBytes
	file.ChargedBits = st.ChargedBits()
	file.DataFrames = st.DataFrames
	file.CtrlFrames = st.CtrlFrames
	file.Resends = st.Resends
	return file, st, nil
}
