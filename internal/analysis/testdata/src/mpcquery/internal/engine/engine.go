// Package engine is a fixture stub exposing the API shapes the analyzers
// classify: emission/seeding sinks for maporder and the delivery machinery
// metering fences off. Signatures only; no behavior.
package engine

// Emitter is the metered emission path.
type Emitter struct{}

func (e *Emitter) EmitTuple(dst int, tuple []int64)    {}
func (e *Emitter) EmitBatch(dst int, tuples [][]int64) {}

// WalkStaged and StageBatch are a transport's walk of a sender's staging
// and its receive-side replay.
func (e *Emitter) WalkStaged(f func(dst int, t []int64))       {}
func (e *Emitter) StageBatch(dest, kind, arity, n int) []int64 { return nil }

// EmitFanout is the bulk replicate-to-subcube emit.
func (e *Emitter) EmitFanout(base int, offsets []int, kind int, tuple []int64) {}

// Inbox is a destination's received-tuple arena.
type Inbox struct{}

// Cluster is the round driver.
type Cluster struct{}

func (c *Cluster) Seed(server int, tuple []int64)    {}
func (c *Cluster) SeedBatch(server int, t [][]int64) {}

// SeedRoundRobin deals a flat relation over the first servers.
func (c *Cluster) SeedRoundRobin(servers, kind, arity int, vals []int64) {}

// Round runs one metered communication round.
func (c *Cluster) Round(name string, f func(server int, inbox *Inbox, emit *Emitter)) {}

// DeliveryRound is one round's transport view.
type DeliveryRound struct {
	Round int
	P     int
}

// DeliverLocal is the in-process delivery kernel.
func DeliverLocal(io *DeliveryRound) {}
