package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// manifestSeeds are the fuzz target's checked-in seeds, over testTable's
// 512 objects (8 slots).
var manifestSeeds = []struct {
	name  string
	valid bool
	json  string
}{
	{"w0", true, seedManifest(`[0,0,0,0,1,1,1,1]`, 512, ``)},
	{"w2-staggered-cuts", true, seedManifest(`[0,0,0,0,1,1,1,1]`, 512,
		`,"max_skew":2,"node_cuts":[{"node":0,"epoch":3,"as_of_tick":5},{"node":1,"epoch":4,"as_of_tick":8}]`)},
	{"post-migration", true, seedManifest(`[1,1,0,0,1,1,1,1]`, 512,
		`,"map_from_tick":14,"node_cuts":[{"node":1,"epoch":2,"as_of_tick":7},{"node":0,"epoch":2,"as_of_tick":7}]`)},
	{"negative-max-skew", false, seedManifest(`[0,0,0,0,1,1,1,1]`, 512, `,"max_skew":-5`)},
	{"enormous-max-skew", false, seedManifest(`[0,0,0,0,1,1,1,1]`, 512, `,"max_skew":1099511627776`)},
	{"map-objects-disagree-with-table", false, seedManifest(`[0,0,1,1]`, 256, ``)},
	{"cut-for-missing-node", false, seedManifest(`[0,0,0,0,1,1,1,1]`, 512,
		`,"node_cuts":[{"node":2,"epoch":1,"as_of_tick":3}]`)},
	{"node-cut-twice", false, seedManifest(`[0,0,0,0,1,1,1,1]`, 512,
		`,"node_cuts":[{"node":1,"epoch":1,"as_of_tick":3},{"node":1,"epoch":2,"as_of_tick":6}]`)},
	{"truncated", false, seedManifest(`[0,0,0,0,1,1,1,1]`, 512, ``)[:90]},
}

func seedManifest(owners string, objects int, rest string) string {
	return fmt.Sprintf(`{"table":{"Rows":8192,"Cols":8,"CellSize":4,"ObjSize":512},`+
		`"map":{"objects":%d,"num_nodes":2,"owners":%s}%s}`, objects, owners, rest)
}

// readManifestBytes runs ReadManifest over data as a cluster.json.
func readManifestBytes(t *testing.T, data []byte) (*Manifest, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadManifest(dir)
}

// TestReadManifestSeeds pins which seeds are accepted — the fuzz target only
// requires that a refusal is an error and not a panic.
func TestReadManifestSeeds(t *testing.T) {
	for _, seed := range manifestSeeds {
		if _, err := readManifestBytes(t, []byte(seed.json)); seed.valid != (err == nil) {
			t.Errorf("%s: ReadManifest returned %v", seed.name, err)
		}
	}
}

// FuzzReadManifest: cluster.json is outside input. No byte sequence may
// panic ReadManifest, nothing it accepts may carry a window, a partition map
// or a cut Recover would size a channel from or index out of range with, and
// an accepted manifest re-encodes through WriteManifest to a file that is
// accepted again with equal fields.
func FuzzReadManifest(f *testing.F) {
	for _, seed := range manifestSeeds {
		f.Add([]byte(seed.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := readManifestBytes(t, data)
		if err != nil {
			return
		}
		if m.MaxSkew < 0 || m.MaxSkew > MaxWindow {
			t.Fatalf("accepted max_skew %d", m.MaxSkew)
		}
		if m.Map.Objects != m.Table.NumObjects() || len(m.Map.Owners) != slots(m.Map.Objects) {
			t.Fatalf("accepted a map over %d objects (%d slots) for a %d-object table",
				m.Map.Objects, len(m.Map.Owners), m.Table.NumObjects())
		}
		seen := map[int]bool{}
		for _, cut := range m.NodeCuts {
			if cut.Node < 0 || cut.Node >= m.Map.NumNodes || seen[cut.Node] {
				t.Fatalf("accepted cuts %+v over %d nodes", m.NodeCuts, m.Map.NumNodes)
			}
			seen[cut.Node] = true
		}
		again := t.TempDir()
		if err := WriteManifest(again, m); err != nil {
			t.Fatal(err)
		}
		m2, err := ReadManifest(again)
		if err != nil {
			t.Fatalf("re-encoded manifest refused: %v", err)
		}
		if m2.Table != m.Table || m2.MapFromTick != m.MapFromTick || m2.MaxSkew != m.MaxSkew ||
			!reflect.DeepEqual(m2.Map, m.Map) || !slices.Equal(m2.NodeCuts, m.NodeCuts) {
			t.Fatalf("manifest changed across a re-encode:\n%+v\n%+v", m, m2)
		}
	})
}
