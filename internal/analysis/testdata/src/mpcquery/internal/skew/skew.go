// Package skew is a METERED fixture package (its import path suffix is on
// the metering list): cross-server data movement must go through
// engine.Emitter inside Cluster.Round. Direct inbox writes, a transport's
// staging walk or restaging, hand-invoked delivery, hand-built delivery
// state, and seeding from inside a round function are flagged.
package skew

import "mpcquery/internal/engine"

func goodEmit(em *engine.Emitter, tuple []int64) {
	em.EmitTuple(0, tuple) // metered path: not flagged
}

// goodShuffle is the whole metered shape: deal the input before the first
// round (free), replicate with the bulk fan-out inside it (billed).
func goodShuffle(c *engine.Cluster, vals []int64, offsets []int) {
	c.SeedRoundRobin(4, 0, 2, vals)
	c.Round("shuffle", func(s int, in *engine.Inbox, em *engine.Emitter) {
		em.EmitFanout(s, offsets, 0, vals[:2])
	})
}

// badSeedInRound hands tuples to other servers from inside a round without
// paying for them; the restaging beside it is still caught too.
func badSeedInRound(c *engine.Cluster, vals []int64, offsets []int) {
	c.Round("free-ride", func(s int, in *engine.Inbox, em *engine.Emitter) {
		c.SeedRoundRobin(4, 0, 2, vals)         // want "inside a round function moves tuples between servers without charging"
		c.Seed(s+1, vals[:2])                   // want "inside a round function moves tuples between servers without charging"
		copy(em.StageBatch(s+1, 0, 2, 2), vals) // want "bypasses bit accounting"
		em.EmitFanout(s, offsets, 0, vals[:2])
	})
}

func badRestage(em *engine.Emitter, tuple []int64) {
	copy(em.StageBatch(0, 0, len(tuple), len(tuple)), tuple) // want "receive-side restaging"
}

func badDrain(em *engine.Emitter) {
	em.WalkStaged(func(dst int, t []int64) {}) // want "transport-facing walk"
}

func badDeliver() {
	io := &engine.DeliveryRound{Round: 0, P: 2} // want "unmetered delivery state"
	engine.DeliverLocal(io)                     // want "skips RoundStats charging"
}

func badInboxLit() engine.Inbox {
	return engine.Inbox{} // want "unmetered delivery state"
}
