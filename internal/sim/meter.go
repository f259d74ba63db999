package sim

import (
	"heterohadoop/internal/power"
)

// ObserveMeter replays a simulated run into a Watts-up-style meter exactly
// the way the paper measures: the meter sees the node's wall power (idle
// plus dynamic) for each phase's duration, sampled at 1 Hz, and the
// reported quantity is the average with idle subtracted. This closes the
// loop between the simulator's energy accounting and the paper's
// measurement methodology — the meter's idle-subtracted energy must equal
// the report's dynamic energy (tested).
func ObserveMeter(node Node, r Report) *power.Meter {
	m := power.NewMeter(node.Power.IdleSystem)
	for _, ph := range Phases() {
		st := r.Phases[ph]
		if st.Time <= 0 {
			continue
		}
		m.Observe(node.Power.IdleSystem+st.AvgPower, st.Time)
	}
	return m
}
