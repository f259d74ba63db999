package metrics_test

import (
	"fmt"

	"heterohadoop/internal/metrics"
)

// ExampleSample shows the paper's cost-metric family on one measurement.
func ExampleSample() {
	s := metrics.Sample{Energy: 500, Delay: 20, Area: 160}
	fmt.Printf("EDP   %.0f J·s\n", s.EDP())
	fmt.Printf("ED2P  %.0f J·s²\n", s.ED2P())
	fmt.Printf("EDAP  %.0f J·s·mm²\n", s.EDAP())
	// Output:
	// EDP   10000 J·s
	// ED2P  200000 J·s²
	// EDAP  1600000 J·s·mm²
}
