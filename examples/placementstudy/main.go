// Placement study: Figure 9 in miniature — each MC placement under XY with
// split VCs, then each placement's best scheme with monopolizing, next to
// the analytic hop counts that fail to predict the winner (the paper's
// point: bottom+YX+FM beats diamond despite diamond's fewer hops).
//
//	go run ./examples/placementstudy
package main

import (
	"context"
	"fmt"
	"log"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/placement"
)

func main() {
	const bench = "KMN"
	m := mesh.New(8, 8)
	ctx := context.Background()

	base, err := gpu.Run(ctx, config.Default(), bench, gpu.Instrumentation{})
	if err != nil {
		log.Fatal(err)
	}

	schemes := []core.Scheme{
		{Label: "Bottom (XY)", Placement: config.PlacementBottom, Routing: config.RoutingXY, VCPolicy: config.VCSplit},
		{Label: "Edge (XY)", Placement: config.PlacementEdge, Routing: config.RoutingXY, VCPolicy: config.VCSplit},
		{Label: "Top-Bottom (XY)", Placement: config.PlacementTopBottom, Routing: config.RoutingXY, VCPolicy: config.VCSplit},
		{Label: "Diamond (XY)", Placement: config.PlacementDiamond, Routing: config.RoutingXY, VCPolicy: config.VCSplit},
		{Label: "Diamond (XY PM)", Placement: config.PlacementDiamond, Routing: config.RoutingXY, VCPolicy: config.VCPartialMonopolized},
		{Label: "Bottom (YX FM)", Placement: config.PlacementBottom, Routing: config.RoutingYX, VCPolicy: config.VCMonopolized},
	}

	fmt.Printf("%-18s %10s %10s   %s\n", "scheme", "avg hops", "speedup", "benchmark "+bench)
	for _, s := range schemes {
		pl, err := placement.New(s.Placement, m, 8)
		if err != nil {
			log.Fatal(err)
		}
		hops, _, _ := pl.AverageHops()
		res, err := gpu.Run(ctx, s.Apply(config.Default()), bench, gpu.Instrumentation{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %10.3f %9.2fx\n", s.Label, hops, res.IPC/base.IPC)
	}
	fmt.Println("\nFewest hops (diamond) does not win: VC monopolizing on the simple")
	fmt.Println("bottom placement buys more bandwidth than shorter paths (Section 4.2).")
}
