package engine

import (
	"fmt"
	"slices"
	"strings"
)

// Hooks for the engine_test package, whose tests also need the transport.

// ReplayTransport attaches a replayLink: staged link delivery, in process.
type ReplayTransport struct{}

func (ReplayTransport) Attach(int, int) (Link, error) { return replayLink{}, nil }

// SpanLayout renders server s's inbox span by span, in delivery order: kind,
// arity, the server in whose arena the span lies, its length and its values.
func SpanLayout(c *Cluster, s int) string {
	ib := c.inbox[s]
	var b strings.Builder
	for i := range ib.spans {
		sp := &ib.spans[i]
		owner := s
		if sp.owner != nil {
			owner = slices.Index(c.inbox, sp.owner)
		}
		fmt.Fprintf(&b, "k%d a%d @%d n%d %v;", sp.kind, sp.arity, owner, sp.end-sp.start, ib.vals(sp))
	}
	return b.String()
}

// EmitterOf returns server s's emitter, for checks outside a round.
func EmitterOf(c *Cluster, s int) *Emitter { return c.emitters[s] }
