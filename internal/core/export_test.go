package core

// StructureCap is the table's capacity.
const StructureCap = structureCap

// ProofsRun is how many structures have been proved since process start.
func ProofsRun() int64 { return proofsRun.Load() }

// ResetStructures empties the table, so a test counts from a known state.
func ResetStructures() {
	t := &structures
	t.Lock()
	defer t.Unlock()
	t.byKey = map[StructureKey]*Structure{}
	t.order = nil
}

// CDGEdges is the number of edges in g.
func CDGEdges(g *CDG) int { return len(g.nbrs) }
