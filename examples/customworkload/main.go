// Custom workload and scheme: define a benchmark profile from scratch, run
// it under a custom NoC design point, and demonstrate the safety analyzer
// rejecting an unsafe VC monopolizing configuration.
//
//	go run ./examples/customworkload
package main

import (
	"context"
	"fmt"
	"log"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

func main() {
	// A pointer-chasing, write-heavy workload that does not exist in the
	// paper's suites: moderate intensity, poor locality, 40% stores.
	custom := workload.Profile{
		Name:           "CHASE",
		Suite:          "custom",
		MemFraction:    0.28,
		StoreFraction:  0.40,
		Locality:       0.30,
		FootprintBytes: 2 << 20,
		RunAhead:       6,
	}

	cfg := config.Default()
	sim, err := gpu.New(cfg, custom)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom workload on baseline: IPC = %.3f, L1 miss = %.2f\n",
		res.IPC, res.GPU.L1MissRate())

	// Ask the analyzer what the best safe VC policy is for a design point.
	for _, s := range []core.Scheme{
		{Label: "bottom+YX", Placement: config.PlacementBottom, Routing: config.RoutingYX},
		{Label: "bottom+XY-YX", Placement: config.PlacementBottom, Routing: config.RoutingXYYX},
		{Label: "diamond+XY", Placement: config.PlacementDiamond, Routing: config.RoutingXY},
	} {
		u, err := core.ValidateScheme(core.Scheme{
			Label: s.Label, Placement: s.Placement, Routing: s.Routing, VCPolicy: config.VCSplit,
		}, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s verdict=%-26s recommended=%s\n",
			s.Label, u.Verdict(), u.RecommendPolicy(cfg.NoC.VCsPerPort))
	}

	// Deliberately unsafe: full monopolizing where classes share links.
	// config.Validate (and so gpu.New) rejects it; setting
	// cfg.AllowUnsafe would let it run anyway and wedge.
	unsafe := cfg
	unsafe.Placement = config.PlacementDiamond
	unsafe.NoC.VCPolicy = config.VCMonopolized
	if _, err := gpu.New(unsafe, custom); err != nil {
		fmt.Printf("\nunsafe design rejected as expected:\n  %v\n", err)
	} else {
		log.Fatal("analyzer failed to reject an unsafe configuration")
	}
}
