// Quickstart: build a dynamic k-core decomposition, apply batched edge
// updates, and read approximate coreness values.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"kcore"
)

func main() {
	// A decomposition over 1000 vertices with the default parameters
	// (approximation factor 2.8).
	d, err := kcore.New(1000)
	if err != nil {
		panic(err)
	}

	// Insert a batch of edges: a dense community (vertices 0..49 form a
	// clique) plus a sparse ring over the rest.
	var batch []kcore.Edge
	for i := uint32(0); i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			batch = append(batch, kcore.Edge{U: i, V: j})
		}
	}
	for i := uint32(50); i < 999; i++ {
		batch = append(batch, kcore.Edge{U: i, V: i + 1})
	}
	added := d.InsertEdges(batch)
	fmt.Printf("inserted %d edges (committed epoch %d)\n", added, d.Epoch())

	// Read coreness estimates. Reads are lock-free and linearizable; they
	// can be issued from any goroutine, even while a batch is running.
	fmt.Printf("coreness estimate of clique vertex 7:   %.2f (exact: 49)\n", d.Coreness(7))
	fmt.Printf("coreness estimate of ring vertex 500:   %.2f (exact: 1)\n", d.Coreness(500))
	fmt.Printf("approximation factor: %.2f\n", d.ApproxFactor())

	// Multi-vertex reads go through an epoch-pinned View: every value is
	// served from one committed batch boundary (reported by Epoch), never a
	// torn mix of concurrent batches.
	view := d.View()
	many := view.CorenessMany([]uint32{7, 13, 500})
	fmt.Printf("bulk estimates served at epoch %d: %v\n", view.Epoch(), many)
	top := view.TopK(3)
	fmt.Printf("top-3 by coreness at epoch %d: %v\n", view.Epoch(), top)

	// Exact values are available as a quiescent operation.
	exact := d.ExactCoreness()
	fmt.Printf("exact coreness of vertex 7: %d, vertex 500: %d\n", exact[7], exact[500])

	// Delete the clique; estimates adapt — and the epoch advances with the
	// new batch.
	d.DeleteEdges(batch[:50*49/2])
	fmt.Printf("after deleting the clique (epoch %d), vertex 7 estimate: %.2f\n",
		d.Epoch(), d.Coreness(7))

	// Retired epochs stay readable within the retention window
	// (WithRetainedEpochs, 8 deep by default): a view fixed at the
	// pre-delete epoch still serves the clique-era values.
	old, err := d.ViewAt(view.Epoch())
	if err != nil {
		panic(err)
	}
	fmt.Printf("vertex 7 back at epoch %d: %.2f (served now, after the delete committed)\n",
		old.Epoch(), old.Coreness(7))
}
