package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTriangle(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tri.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunRejectsNonPositiveBatch(t *testing.T) {
	path := writeTriangle(t)
	for _, batch := range []int{0, -1} {
		if err := run(path, "approx", 0.2, 9, batch, true, false, 0); err == nil {
			t.Fatalf("batch %d: want an error", batch)
		}
	}
	if err := run(path, "approx", 0.2, 9, 2, true, false, 0); err != nil {
		t.Fatalf("batch 2: %v", err)
	}
}
