package mpcquery

import (
	"reflect"
	"testing"
)

// TestOutputSinkEveryFamily holds every join strategy of the golden table to
// the sink contract: a run with a DigestSink materializes nothing, meters
// exactly what the materialized run meters, and streams exactly its rows,
// server for server. A multi-round plan streams its root node, so its
// intermediate views must still reach the later rounds. Aggregate cases
// materialize their output by contract and are skipped.
func TestOutputSinkEveryFamily(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			want, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if want.Aggregate != "" {
				t.Skip("aggregates materialize their output")
			}
			sink := &DigestSink{}
			got, err := c.run(WithOutputSink(sink))
			if err != nil {
				t.Fatal(err)
			}
			if got.Output != nil {
				t.Errorf("sink run materialized %d rows", got.Output.NumTuples())
			}
			if got.TotalBits != want.TotalBits || got.MaxLoadBits != want.MaxLoadBits {
				t.Errorf("sink changed accounting: TotalBits %v vs %v, MaxLoadBits %v vs %v",
					got.TotalBits, want.TotalBits, got.MaxLoadBits, want.MaxLoadBits)
			}
			if !reflect.DeepEqual(got.RoundStats, want.RoundStats) {
				t.Errorf("sink changed the rounds: %v, want %v", got.RoundStats, want.RoundStats)
			}
			if n := sink.Tuples(); n != want.Output.NumTuples() {
				t.Errorf("sink saw %d rows, materialized output has %d", n, want.Output.NumTuples())
			}
			reconcileSink(t, sink, want.Output)
		})
	}
}
