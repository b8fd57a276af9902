// periodtuning reproduces the operating-point search a system integrator
// would run: sweep the migration period (in LDPC blocks) and pick the
// longest period whose peak-temperature give-back stays under a budget —
// the paper's rationale for moving from 109.3 µs to 437.2 µs and 874.4 µs.
//
//	go run ./examples/periodtuning
package main

import (
	"context"
	"fmt"
	"log"

	"hotnoc"
)

func main() {
	const (
		config   = "A"
		scale    = 8
		maxRiseC = 0.25 // thermal budget versus the fastest period
	)

	lab := hotnoc.NewLab(hotnoc.WithScale(scale))
	pts, err := lab.PeriodSweep(context.Background(), config, hotnoc.XYShift(), []int{1, 2, 4, 8, 16})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("configuration %s, X-Y shift — period tuning\n\n", config)
	fmt.Printf("%7s %12s %10s %10s %11s\n", "blocks", "period (µs)", "peak (°C)", "rise (°C)", "penalty (%)")
	best := pts[0]
	for _, p := range pts {
		marker := ""
		if p.PeakRiseC <= maxRiseC {
			best = p
			marker = "  <- within budget"
		}
		fmt.Printf("%7d %12.1f %10.2f %10.3f %11.3f%s\n",
			p.Blocks, p.PeriodSec*1e6, p.PeakC, p.PeakRiseC, p.ThroughputPenalty*100, marker)
	}

	fmt.Printf("\nchosen operating point: %d block(s) per migration (%.1f µs), "+
		"%.3f%% throughput penalty, %.3f °C hotter than the fastest setting.\n",
		best.Blocks, best.PeriodSec*1e6, best.ThroughputPenalty*100, best.PeakRiseC)
	fmt.Println("the paper makes the same trade: 437.2 µs costs <0.4% with <0.1 °C give-back.")
}
