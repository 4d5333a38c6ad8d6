// Quickstart: build the Table 2 baseline GPGPU, run one benchmark, and
// compare the paper's proposed NoC design against the baseline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
)

func main() {
	// The baseline system: 56 SMs + 8 MCs on an 8x8 mesh, bottom MC
	// placement, XY routing, VCs split 1:1 between requests and replies.
	cfg := config.Default()
	ctx := context.Background()

	baseline, err := gpu.Run(ctx, cfg, "KMN", gpu.Instrumentation{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline   (bottom + XY + split VCs):      IPC = %.3f\n", baseline.IPC)

	// The paper's best design: same bottom placement, YX routing, and VC
	// monopolizing — safe because the link-usage analysis proves request
	// and reply traffic never share a directed link (Section 3.2.1).
	best := core.BestProposed.Apply(cfg)
	proposed, err := gpu.Run(ctx, best, "KMN", gpu.Instrumentation{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("proposed   (bottom + YX + monopolized VCs): IPC = %.3f\n", proposed.IPC)
	fmt.Printf("speedup: %.2fx\n", proposed.IPC/baseline.IPC)
}
