package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/eN.golden")

// goldenIDs are the experiments whose tables are deterministic: two runs
// render byte-identical text. E6–E8 print wall-clock timings and are
// left out.
var goldenIDs = []string{"e1", "e2", "e3", "e4", "e5", "e9", "e10"}

// TestTablesGolden pins the reproduction's deterministic tables: each is
// rendered through ByID with its default parameters and compared with
// testdata/<id>.golden byte for byte. A core or schedule change that
// moves a verdict, a count or a rate shows here. Rerun with -update only
// after a deliberate change to what an experiment measures.
func TestTablesGolden(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			tb, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			tb.Render(&got)
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Fatalf("%s drifted from %s (rerun with -update if deliberate):\n got:\n%s\nwant:\n%s", id, path, got.String(), want)
			}
		})
	}
}
