package stats

import (
	"fmt"
	"io"
	"strings"

	"gpgpunoc/internal/mesh"
)

// Link-level reporting: ASCII heatmaps for at-a-glance inspection of where
// a scheme concentrates traffic (the Figure 4/6 pictures, measured instead
// of derived).

// UtilizationGrid returns per-tile utilization of the outgoing link in
// direction d (both classes summed), indexed [row][col]. Tiles whose link
// does not exist hold -1.
func (n *Net) UtilizationGrid(d mesh.Direction) [][]float64 {
	g := make([][]float64, n.Mesh.Height)
	for r := range g {
		g[r] = make([]float64, n.Mesh.Width)
		for c := range g[r] {
			coord := mesh.Coord{Row: r, Col: c}
			if _, ok := n.Mesh.Neighbor(coord, d); !ok || d == mesh.Local {
				g[r][c] = -1
				continue
			}
			g[r][c] = n.LinkUtilization(mesh.Link{From: n.Mesh.ID(coord), Dir: d})
		}
	}
	return g
}

// heatRunes maps utilization to a glyph ramp.
var heatRunes = []rune(" .:-=+*#%@")

func heatRune(u float64) rune {
	if u < 0 {
		return 'x'
	}
	i := int(u * float64(len(heatRunes)))
	if i >= len(heatRunes) {
		i = len(heatRunes) - 1
	}
	return heatRunes[i]
}

// Heatmap renders ASCII utilization maps for the four link directions.
// Each cell shows the utilization of the tile's outgoing link in that
// direction ('x' where no link exists; ' '..'@' spans 0..100%).
func (n *Net) Heatmap(w io.Writer) {
	for _, d := range []mesh.Direction{mesh.North, mesh.East, mesh.South, mesh.West} {
		fmt.Fprintf(w, "outgoing %s links (flits/cycle, ' '=idle '@'=saturated):\n", d)
		for _, row := range n.UtilizationGrid(d) {
			var b strings.Builder
			b.WriteString("  ")
			for _, u := range row {
				b.WriteRune(heatRune(u))
			}
			fmt.Fprintln(w, b.String())
		}
	}
}
