package session

import "decor/internal/admit"

// UseGate makes every Manager built until restore is called admit its
// calls through g, and returns restore.
func UseGate(g *admit.Gate) (restore func()) {
	old := newGate
	newGate = func() *admit.Gate { return g }
	return func() { newGate = old }
}
