// Package energy models sensor energy consumption with the first-order
// radio model of Heinzelman et al. (HICSS 2000) — the paper's reference
// [6], which it cites for energy-aware leader rotation. It quantifies
// two claims of the paper: that DECOR's message-light protocol preserves
// energy, and that k-coverage extends network lifetime by letting
// redundant covers sleep (§1, application 3).
package energy

import (
	"sort"

	"decor/internal/core"
	"decor/internal/coverage"
)

// Model holds the radio/duty-cycle cost parameters.
type Model struct {
	// ElecPerBit is the electronics energy per bit for both TX and RX
	// (LEACH: 50 nJ/bit).
	ElecPerBit float64
	// AmpPerBitM2 is the transmit amplifier energy per bit per square
	// meter (LEACH: 100 pJ/bit/m²).
	AmpPerBitM2 float64
	// MessageBits is the size of one protocol message (LEACH: 2000).
	MessageBits float64
	// ActivePerSec is the sensing+processing drain of an awake node.
	ActivePerSec float64
	// SleepPerSec is the drain of a sleeping node.
	SleepPerSec float64
}

// Default returns the LEACH parameterization with a 10 µW active and
// 10 nW sleep drain.
func Default() Model {
	return Model{
		ElecPerBit:   50e-9,
		AmpPerBitM2:  100e-12,
		MessageBits:  2000,
		ActivePerSec: 10e-6,
		SleepPerSec:  10e-9,
	}
}

// TxCost returns the energy to transmit one message over distance d.
func (m Model) TxCost(d float64) float64 {
	return m.MessageBits * (m.ElecPerBit + m.AmpPerBitM2*d*d)
}

// RxCost returns the energy to receive one message.
func (m Model) RxCost() float64 {
	return m.MessageBits * m.ElecPerBit
}

// Accountant tracks per-node energy budgets.
type Accountant struct {
	model    Model
	capacity float64
	spent    map[int]float64
}

// NewAccountant creates an accountant where every node starts with
// capacity joules. capacity must be positive.
func NewAccountant(model Model, capacity float64) *Accountant {
	if capacity <= 0 {
		panic("energy: capacity must be positive")
	}
	return &Accountant{model: model, capacity: capacity, spent: map[int]float64{}}
}

// Depleted reports whether the node has exhausted its budget.
func (a *Accountant) Depleted(id int) bool { return a.spent[id] >= a.capacity }

// DeploymentCost estimates the radio energy of a finished deployment
// run: every protocol message is one broadcast at range rc by its
// sender, received by the sender's communication neighbors at that
// time. Receiver counts are approximated with the final topology (the
// network only grows during deployment, so this is an upper bound).
// Returns energy per node for nodes that transmitted, plus the total,
// summed in ascending node ID so one run always gives the same float.
func DeploymentCost(m *coverage.Map, res core.Result, model Model, rc float64) (perNode map[int]float64, total float64) {
	perNode = make(map[int]float64, len(res.NodeMessages))
	ids := make([]int, 0, len(res.NodeMessages))
	for id := range res.NodeMessages {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		msgs := res.NodeMessages[id]
		cost := model.TxCost(rc) * float64(msgs)
		if pos, ok := m.SensorPos(id); ok {
			if receivers := m.CountSensorsInBall(pos, rc) - 1; receivers > 0 {
				cost += model.RxCost() * float64(msgs*receivers)
			}
		}
		perNode[id] = cost
		total += cost
	}
	return perNode, total
}

// LifetimeEpochs simulates duty-cycle rotation across disjoint covers:
// in each epoch of epochSec seconds exactly one cover is awake (round
// robin) and everyone else sleeps; heartbeats cost each awake node
// hbPerEpoch transmissions at range rc. It returns the number of whole
// epochs until the first awake node would die — the lifetime multiple
// k-coverage buys (paper §1, application 3).
func LifetimeEpochs(covers [][]int, model Model, capacity, epochSec, rc float64, hbPerEpoch int) int {
	if len(covers) == 0 || capacity <= 0 {
		return 0
	}
	acct := NewAccountant(model, capacity)
	all := map[int]bool{}
	for _, cover := range covers {
		for _, id := range cover {
			all[id] = true
		}
	}
	epochCostActive := model.ActivePerSec*epochSec + float64(hbPerEpoch)*model.TxCost(rc)
	epochCostSleep := model.SleepPerSec * epochSec
	for epoch := 0; ; epoch++ {
		active := covers[epoch%len(covers)]
		activeSet := map[int]bool{}
		for _, id := range active {
			activeSet[id] = true
		}
		// A dead node in the scheduled cover ends the (simple) rotation.
		for _, id := range active {
			if acct.Depleted(id) {
				return epoch
			}
		}
		for id := range all {
			if activeSet[id] {
				acct.spent[id] += epochCostActive
			} else {
				acct.spent[id] += epochCostSleep
			}
		}
	}
}
