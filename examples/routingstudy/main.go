// Routing study: Figure 7 in miniature — XY vs YX vs XY-YX on the bottom
// MC placement, over a handful of benchmarks.
//
//	go run ./examples/routingstudy
package main

import (
	"context"
	"fmt"
	"log"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
)

func main() {
	benchmarks := []string{"CP", "RAY", "RED", "KMN", "BFS"}
	routings := []config.Routing{config.RoutingXY, config.RoutingYX, config.RoutingXYYX}

	fmt.Printf("%-10s", "benchmark")
	for _, r := range routings {
		fmt.Printf("%10s", r)
	}
	fmt.Println("   (IPC normalized to XY)")

	for _, b := range benchmarks {
		var base float64
		fmt.Printf("%-10s", b)
		for i, r := range routings {
			cfg := config.Default()
			cfg.NoC.Routing = r
			res, err := gpu.Run(context.Background(), cfg, b, gpu.Instrumentation{})
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				base = res.IPC
			}
			fmt.Printf("%10.3f", res.IPC/base)
		}
		fmt.Println()
	}
	fmt.Println("\nThe XY baseline funnels all reply traffic through the MC-row links;")
	fmt.Println("YX moves replies off that row, and XY-YX empties it entirely (Fig. 6).")
}
