// Package driver is NOT on the metering list: it may touch the delivery
// machinery freely (this is the engine-adjacent layer's privilege), so
// metering reports nothing here.
package driver

import "mpcquery/internal/engine"

func deliver(em *engine.Emitter, tuple []int64) {
	em.WalkStaged(func(dst int, t []int64) {})
	copy(em.StageBatch(0, 0, 1, len(tuple)), tuple)
	io := &engine.DeliveryRound{Round: 0, P: 2}
	engine.DeliverLocal(io)
}
