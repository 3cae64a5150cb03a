package main

import (
	"os"
	"path/filepath"
	"testing"

	"kcore/internal/lds"
	"kcore/internal/server"
)

func TestLoadFileBatches(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tri.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(3, lds.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, batch := range []int{0, -1} {
		if err := loadFile(srv, path, batch); err == nil {
			t.Fatalf("batch %d: want an error", batch)
		}
	}
	if got := srv.Decomposition().NumEdges(); got != 0 {
		t.Fatalf("a rejected load applied %d edges", got)
	}
	if err := loadFile(srv, path, 2); err != nil {
		t.Fatal(err)
	}
	if got := srv.Decomposition().NumEdges(); got != 3 {
		t.Fatalf("loaded %d edges, want 3", got)
	}
}
