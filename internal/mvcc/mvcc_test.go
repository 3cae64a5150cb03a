package mvcc

import (
	"cmp"
	"errors"
	"slices"
	"testing"
)

// fakeHistory drives a Store the way an engine updater would: level[v]
// evolves over epochs, each commit puts the batch's sorted delta.
type fakeHistory struct {
	store  *Store
	cur    uint64
	levels []int32            // live levels
	past   map[uint64][]int32 // full snapshot per epoch (test oracle)
}

func newFakeHistory(n, retain int) *fakeHistory {
	h := &fakeHistory{store: NewStore(retain), levels: make([]int32, n), past: map[uint64][]int32{}}
	h.snapshot()
	return h
}

func (h *fakeHistory) snapshot() {
	s := make([]int32, len(h.levels))
	copy(s, h.levels)
	h.past[h.cur] = s
}

// commit applies moves (vertex -> new level) as one batch.
func (h *fakeHistory) commit(moves map[uint32]int32) {
	h.cur++
	d := &Delta{Epoch: h.cur}
	for v, nl := range moves {
		if h.levels[v] != nl {
			d.Moves = append(d.Moves, Move{V: v, Old: h.levels[v], New: nl})
		}
		h.levels[v] = nl
	}
	slices.SortFunc(d.Moves, func(a, b Move) int { return cmp.Compare(a.V, b.V) })
	h.store.Put(d)
	h.snapshot()
}

func (h *fakeHistory) levelsAt(t *testing.T, epoch uint64) []int32 {
	t.Helper()
	got := make([]int32, len(h.levels))
	copy(got, h.levels)
	if err := h.store.OverlayAll(epoch, h.cur, got); err != nil {
		t.Fatalf("OverlayAll(%d): %v", epoch, err)
	}
	return got
}

func TestStoreOverlayReconstructsEveryRetainedEpoch(t *testing.T) {
	h := newFakeHistory(8, 16)
	h.commit(map[uint32]int32{0: 1, 1: 2})
	h.commit(map[uint32]int32{0: 3})
	h.commit(map[uint32]int32{2: 5, 1: 1})
	h.commit(map[uint32]int32{0: 0, 2: 0, 3: 4})
	for e := uint64(0); e <= h.cur; e++ {
		got := h.levelsAt(t, e)
		want := h.past[e]
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("epoch %d vertex %d: got %d, want %d (full %v vs %v)", e, v, got[v], want[v], got, want)
			}
		}
	}
	if err := h.store.CheckInvariants(h.cur); err != nil {
		t.Fatal(err)
	}
}

func TestStoreOverlayMany(t *testing.T) {
	h := newFakeHistory(6, 8)
	h.commit(map[uint32]int32{0: 4, 5: 2})
	h.commit(map[uint32]int32{0: 1, 3: 3})
	vs := []uint32{0, 3, 5, 4}
	levels := make([]int32, len(vs))
	for i, v := range vs {
		levels[i] = h.levels[v]
	}
	if err := h.store.OverlayMany(1, h.cur, vs, levels); err != nil {
		t.Fatal(err)
	}
	want := h.past[1]
	for i, v := range vs {
		if levels[i] != want[v] {
			t.Fatalf("vertex %d at epoch 1: got %d, want %d", v, levels[i], want[v])
		}
	}
}

func TestStoreEvictionAndTypedErrors(t *testing.T) {
	h := newFakeHistory(4, 2)
	for i := 0; i < 6; i++ {
		h.commit(map[uint32]int32{0: int32(i + 1)})
	}
	// Retain 2 deltas (epochs 5,6): readable epochs are 4..6.
	if got := h.store.OldestReadable(h.cur); got != 4 {
		t.Fatalf("OldestReadable = %d, want 4", got)
	}
	for e := uint64(4); e <= 6; e++ {
		if err := h.store.Check(e, h.cur); err != nil {
			t.Fatalf("Check(%d): %v", e, err)
		}
	}
	err := h.store.Check(3, h.cur)
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("Check(3) = %v, want ErrEvicted", err)
	}
	var ev *EvictedEpochError
	if !errors.As(err, &ev) || ev.Epoch != 3 || ev.OldestReadable != 4 {
		t.Fatalf("evicted error detail: %+v", ev)
	}
	err = h.store.Check(7, h.cur)
	if !errors.Is(err, ErrFuture) {
		t.Fatalf("Check(7) = %v, want ErrFuture", err)
	}
	levels := make([]int32, 4)
	if err := h.store.OverlayAll(2, h.cur, levels); !errors.Is(err, ErrEvicted) {
		t.Fatalf("OverlayAll at evicted epoch = %v, want ErrEvicted", err)
	}
}

func TestStorePinBlocksEviction(t *testing.T) {
	h := newFakeHistory(4, 2)
	h.commit(map[uint32]int32{0: 1})
	h.commit(map[uint32]int32{0: 2})
	if err := h.store.Pin(1, h.cur); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h.commit(map[uint32]int32{0: int32(10 + i)})
	}
	// Epoch 1 must still reconstruct exactly while pinned.
	got := h.levelsAt(t, 1)
	if got[0] != h.past[1][0] {
		t.Fatalf("pinned epoch 1: got %d, want %d", got[0], h.past[1][0])
	}
	if err := h.store.CheckInvariants(h.cur); err != nil {
		t.Fatal(err)
	}
	h.store.Unpin(1)
	if h.store.Pins() != 0 {
		t.Fatal("pin count not released")
	}
	// Release reclaims the tail the pin was holding.
	if err := h.store.Check(1, h.cur); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Check(1) after release = %v, want ErrEvicted", err)
	}
	if err := h.store.CheckInvariants(h.cur); err != nil {
		t.Fatal(err)
	}
}

func TestStorePinErrors(t *testing.T) {
	h := newFakeHistory(4, 1)
	h.commit(map[uint32]int32{0: 1})
	h.commit(map[uint32]int32{0: 2})
	h.commit(map[uint32]int32{0: 3})
	if err := h.store.Pin(0, h.cur); !errors.Is(err, ErrEvicted) {
		t.Fatalf("Pin(evicted) = %v", err)
	}
	if err := h.store.Pin(9, h.cur); !errors.Is(err, ErrFuture) {
		t.Fatalf("Pin(future) = %v", err)
	}
	// Nested pins: both must be released before eviction resumes.
	if err := h.store.Pin(2, h.cur); err != nil {
		t.Fatal(err)
	}
	if err := h.store.Pin(2, h.cur); err != nil {
		t.Fatal(err)
	}
	h.store.Unpin(2)
	if h.store.Pins() != 1 {
		t.Fatal("nested pin dropped early")
	}
	h.store.Unpin(2)
	if h.store.Pins() != 0 {
		t.Fatal("nested pin never drained")
	}
}

func TestVectorLogMapsEpochsToVectors(t *testing.T) {
	l := NewVectorLog([]uint64{0, 0, 0}, 8)
	// Simulate commits on shards 1,0,1,2 with publication tracking.
	published := 0
	order := []int{1, 0, 1, 2}
	for _, s := range order {
		l.Commit(s, func(epoch uint64) {
			published++
			if epoch != uint64(published) {
				t.Fatalf("commit %d published at epoch %d", published, epoch)
			}
		})
	}
	if published != len(order) {
		t.Fatalf("publish invoked %d times, want %d", published, len(order))
	}
	if l.Epoch() != 4 {
		t.Fatalf("Epoch = %d, want 4", l.Epoch())
	}
	want := map[uint64][]uint64{
		0: {0, 0, 0},
		1: {0, 1, 0},
		2: {1, 1, 0},
		3: {1, 2, 0},
		4: {1, 2, 1},
	}
	dst := make([]uint64, 3)
	for e, w := range want {
		if err := l.VectorAt(e, dst); err != nil {
			t.Fatalf("VectorAt(%d): %v", e, err)
		}
		for i := range w {
			if dst[i] != w[i] {
				t.Fatalf("VectorAt(%d) = %v, want %v", e, dst, w)
			}
		}
	}
	if err := l.CheckInvariants([]uint64{1, 2, 1}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorLogEvictionAndPins(t *testing.T) {
	l := NewVectorLog([]uint64{0, 0}, 2)
	for i := 0; i < 6; i++ {
		l.Commit(i%2, func(uint64) {})
	}
	// Retain 2 retired epochs + current: 4..6 readable.
	if got := l.OldestReadable(); got != 4 {
		t.Fatalf("OldestReadable = %d, want 4", got)
	}
	dst := make([]uint64, 2)
	if err := l.VectorAt(3, dst); !errors.Is(err, ErrEvicted) {
		t.Fatalf("VectorAt(evicted) = %v", err)
	}
	if err := l.VectorAt(9, dst); !errors.Is(err, ErrFuture) {
		t.Fatalf("VectorAt(future) = %v", err)
	}
	if err := l.Pin(4, dst); err != nil {
		t.Fatal(err)
	}
	pinned := append([]uint64(nil), dst...)
	for i := 0; i < 8; i++ {
		l.Commit(i%2, func(uint64) {})
	}
	if err := l.VectorAt(4, dst); err != nil {
		t.Fatalf("pinned vector evicted: %v", err)
	}
	for i := range pinned {
		if dst[i] != pinned[i] {
			t.Fatalf("pinned vector changed: %v vs %v", dst, pinned)
		}
	}
	if !l.Unpin(4, dst) {
		t.Fatal("Unpin of pinned epoch failed")
	}
	if l.Unpin(4, dst) {
		t.Fatal("Unpin of unpinned epoch succeeded")
	}
	l.Commit(0, func(uint64) {})
	if err := l.VectorAt(4, dst); !errors.Is(err, ErrEvicted) {
		t.Fatalf("VectorAt(4) after release = %v, want ErrEvicted", err)
	}

	// retain = 0 keeps only the live vector: the log is just the counter.
	l = NewVectorLog([]uint64{3, 1}, 0)
	for i := 0; i < 5; i++ {
		l.Commit(i%2, func(uint64) {})
	}
	cur := l.Epoch()
	if cur != 9 || l.OldestReadable() != cur {
		t.Fatalf("retain 0: Epoch %d, OldestReadable %d, want both 9", cur, l.OldestReadable())
	}
	if err := l.Check(cur); err != nil {
		t.Fatalf("retain 0: Check(current) = %v", err)
	}
	if err := l.Check(cur - 1); !errors.Is(err, ErrEvicted) {
		t.Fatalf("retain 0: Check(current-1) = %v, want ErrEvicted", err)
	}
	if err := l.CheckInvariants([]uint64{6, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestAppendMatchesPut replays the same batches into one store through
// Append (unsorted movers, no-op movers included) and into another through
// Put (sorted changed-level moves): every retained epoch must overlay
// identically.
func TestAppendMatchesPut(t *testing.T) {
	h := newFakeHistory(6, 8)
	appended := NewStore(8)
	batches := []map[uint32]int32{{5: 2, 0: 4, 3: 0}, {3: 3, 0: 1}, {1: 1, 5: 2, 4: 6}}
	for _, moves := range batches {
		old := append([]int32(nil), h.levels...)
		movers := make([]uint32, 0, len(moves))
		for v := range moves {
			movers = append(movers, v)
		}
		h.commit(moves)
		appended.Append(h.cur, movers, func(v uint32) int32 { return old[v] })
	}
	for e := uint64(0); e <= h.cur; e++ {
		want := h.levelsAt(t, e)
		got := append([]int32(nil), h.levels...)
		if err := appended.OverlayAll(e, h.cur, got); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("epoch %d: Append overlays %v, Put overlays %v", e, got, want)
		}
	}
	if err := appended.CheckInvariants(h.cur); err != nil {
		t.Fatal(err)
	}
}

func TestNonConsecutiveAppendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on non-consecutive append")
		}
	}()
	s := NewStore(4)
	s.Append(1, nil, nil)
	s.Append(3, nil, nil)
}
