package expt

// golden_test.go pins every artefact's exact output against the checked-in
// golden files, protecting the calibration from accidental drift: any model
// or profile change that perturbs a reproduced figure fails here until the
// goldens are regenerated deliberately with -update.

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artefact files")

func TestGoldenArtefacts(t *testing.T) {
	for _, g := range All() {
		g := g
		t.Run(g.ID, func(t *testing.T) {
			tbl, err := g.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := tbl.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", g.ID+".csv")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/expt -run TestGoldenArtefacts -update`): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from its golden output; if the change is intentional, regenerate with -update", g.ID)
			}
		})
	}
}
