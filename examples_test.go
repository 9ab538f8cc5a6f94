package mpcp_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamplesGolden builds every examples/ program once and checks that
// each prints exactly its testdata/examples/<name>.golden. The programs
// are deterministic, so any difference is a change in what the library
// computes or in how an example drives it.
func TestExamplesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example program")
	}
	goldens, err := filepath.Glob("testdata/examples/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	if len(goldens) != len(mains) {
		t.Fatalf("%d goldens for %d example programs", len(goldens), len(mains))
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, golden := range goldens {
		name := strings.TrimSuffix(filepath.Base(golden), ".golden")
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exec.Command(filepath.Join(bin, name)).Output()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}
