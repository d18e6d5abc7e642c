package mpcquery

import (
	"math"
	"testing"
)

// TestReportInvariantsOverGoldenTable holds every strategy family's Report to
// the run record it is a view of, bit for bit, on the pinned golden
// workloads: one RoundStats entry per round, numbered from 1 in execution
// order, the maximum load the largest of them, and the replication rate the
// total over the input.
func TestReportInvariantsOverGoldenTable(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			rep, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rounds != len(rep.RoundStats) {
				t.Fatalf("Rounds = %d but %d RoundStats", rep.Rounds, len(rep.RoundStats))
			}
			maxLoad := 0.0
			for i, rs := range rep.RoundStats {
				if rs.Round != i+1 {
					t.Errorf("RoundStats[%d].Round = %d, want %d", i, rs.Round, i+1)
				}
				maxLoad = max(maxLoad, rs.MaxLoadBits)
			}
			if math.Float64bits(rep.MaxLoadBits) != math.Float64bits(maxLoad) {
				t.Errorf("MaxLoadBits = %v, want the largest round load %v", rep.MaxLoadBits, maxLoad)
			}
			if want := rep.TotalBits / rep.InputBits; math.Float64bits(rep.ReplicationRate) != math.Float64bits(want) {
				t.Errorf("ReplicationRate = %v, want TotalBits/InputBits = %v", rep.ReplicationRate, want)
			}
		})
	}
}
