package kcore

import (
	"math"
	"sort"

	"kcore/internal/apps"
	"kcore/internal/shard"
)

// View is an epoch-pinned read handle over a Decomposition.
//
// Single-vertex Coreness reads are linearizable on their own, but two
// consecutive calls may straddle a batch boundary, so any surface that
// combines several vertices — rankings, bulk lookups, histograms — can
// observe a torn mix of batches. A View closes that gap: every read through
// a View is served from exactly one committed batch boundary (an epoch),
// and Epoch reports which one.
//
// A View operates in one of two modes:
//
//   - Floating (from Decomposition.View): each read is served from the
//     latest committed epoch and re-pins the view to it, through the
//     engine's one committed-cut protocol (cplds CutBegin/CutEnd): collect
//     with the lock-free linearizable protocol, validate that no commit
//     sequence changed, and after repeated failures run the same collection
//     once more under the batch gates. Reads never return a cross-batch mix,
//     and only that last gated attempt ever holds a batch back.
//
//   - Fixed (from Decomposition.ViewAt, or after Pin): every read serves
//     exactly the view's epoch, even after later batches commit, by
//     overlaying the engine's retained per-epoch deltas on the live state
//     (see WithRetainedEpochs). Fixed reads are deterministic: the same
//     epoch yields byte-identical results before and after any number of
//     subsequent commits, for as long as the epoch stays retained.
//
// An unpinned fixed view races eviction: if its epoch falls out of the
// retention window, reads return zero values (NaN for Coreness) and the
// first failure is recorded sticky in Err. Pin removes the race: a pinned
// epoch cannot be evicted, so reads through a pinned View never fail.
// Always pair Pin with Release — a leaked pin blocks delta eviction and
// grows the multi-version store for the lifetime of the process.
//
// A View is a lightweight per-request handle: creating one is a handful of
// atomic loads, so create one per request or per goroutine. A View must not
// be used from multiple goroutines concurrently (reads update the recorded
// epoch and sticky error); the Decomposition itself remains safe for any
// number of concurrent Views.
//
// In sharded mode the epoch is the cross-shard epoch (total committed
// batches over all shards); a fixed view resolves it to the per-shard
// commit vector recorded at that epoch's commit, so retired reads are one
// consistent cross-shard cut.
type View struct {
	eng    *shard.Engine
	epoch  uint64
	fixed  bool
	pinned bool
	err    error

	// Scratch for single-vertex reads: spares Coreness the per-call id/out
	// slices (the engine's retained-read path still allocates its own
	// level scratch internally).
	oneV   [1]uint32
	oneOut [1]float64
}

// View returns a floating read handle pinned to the latest committed epoch.
// Cheap (atomic loads only) and safe to call at any time, including
// concurrently with update batches.
func (d *Decomposition) View() *View {
	return &View{eng: d.eng, epoch: d.eng.Epoch()}
}

// ViewAt returns a fixed read handle serving exactly the given committed
// epoch — reads through it keep returning that epoch's values even after
// later batches commit, for as long as the epoch is retained (see
// WithRetainedEpochs). It fails with an error matching ErrEpochEvicted if
// the epoch already fell out of the retention window, or ErrFutureEpoch if
// it has not committed yet. The returned view races eviction until pinned;
// call Pin to hold the epoch.
func (d *Decomposition) ViewAt(epoch uint64) (*View, error) {
	if err := d.eng.CheckEpoch(epoch); err != nil {
		return nil, err
	}
	return &View{eng: d.eng, epoch: epoch, fixed: true}, nil
}

// Epoch returns the epoch of the cut served by this view: for a floating
// view, the epoch of the most recent read (initially the latest committed
// epoch at creation); for a fixed view, the epoch it serves. Equal epochs
// mean reads observed the identical committed state.
func (v *View) Epoch() uint64 { return v.epoch }

// Fixed reports whether the view serves one specific epoch (ViewAt or Pin)
// rather than floating with the latest commit.
func (v *View) Fixed() bool { return v.fixed }

// Pinned reports whether the view currently holds a pin on its epoch.
func (v *View) Pinned() bool { return v.pinned }

// Err returns the first read failure of a fixed view (an error matching
// ErrEpochEvicted once the view's epoch was evicted mid-read), or nil.
// Reads through a pinned view never fail.
func (v *View) Err() error { return v.err }

// Pin fixes the view at its current epoch and holds that epoch in the
// multi-version store: it cannot be evicted until Release, so every
// subsequent read — across any number of later commits — serves it
// byte-identically and never fails. Pin on an already-pinned view is a
// no-op. It fails with an error matching ErrEpochEvicted if the epoch was
// already evicted (always, when retention is disabled), or ErrFutureEpoch
// for an epoch ahead of the commit frontier; the view is left unpinned.
func (v *View) Pin() error {
	if v.pinned {
		return nil
	}
	if err := v.eng.PinEpoch(v.epoch); err != nil {
		return err
	}
	v.fixed, v.pinned = true, true
	return nil
}

// Release drops the pin taken by Pin. The view stays fixed at its epoch
// but no longer holds it: the epoch remains readable until it ages out of
// the retention window, after which reads fail (see Err). Release on an
// unpinned view is a no-op; a pinned View must be released exactly once.
func (v *View) Release() {
	if v.pinned {
		v.eng.UnpinEpoch(v.epoch)
		v.pinned = false
	}
}

// fail records the first fixed-read failure sticky.
func (v *View) fail(err error) {
	if v.err == nil {
		v.err = err
	}
}

// read fills out with the estimates of vs — of every vertex when vs is nil —
// from one committed cut: the view's fixed epoch, or the latest one,
// re-pinning a floating view to it. A fixed-read failure is recorded in
// Err and returned.
func (v *View) read(vs []uint32, out []float64) error {
	if !v.fixed {
		if vs == nil {
			v.epoch = v.eng.ReadAllPinned(out)
		} else {
			v.epoch = v.eng.ReadManyPinned(vs, out)
		}
		return nil
	}
	var err error
	if vs == nil {
		err = v.eng.ReadAllAt(out, v.epoch)
	} else {
		err = v.eng.ReadManyAt(vs, out, v.epoch)
	}
	if err != nil {
		v.fail(err)
	}
	return err
}

// Coreness returns the linearizable coreness estimate of u from one
// committed cut: the view's fixed epoch, or — for a floating view — the
// latest one, re-pinning the view to it. On a fixed view whose epoch was
// evicted it returns NaN and records the error in Err.
func (v *View) Coreness(u uint32) float64 {
	v.oneV[0] = u
	if v.read(v.oneV[:], v.oneOut[:]) != nil {
		return math.NaN()
	}
	return v.oneOut[0]
}

// CorenessMany returns the coreness estimates of us, all served from one
// committed batch boundary (never a torn mix of batches): the view's fixed
// epoch, or the latest one (re-pinning a floating view to it). Safe to call
// concurrently with update batches; lock-free in the common regime. On a
// fixed view whose epoch was evicted it returns nil and records the error
// in Err.
func (v *View) CorenessMany(us []uint32) []float64 {
	out := make([]float64, len(us))
	if v.read(us, out) != nil {
		return nil
	}
	return out
}

// CorenessManyInto is CorenessMany without the allocation: it fills
// out[i] with the estimate of us[i] (len(out) must equal len(us)) and
// returns the epoch served. On a fixed view whose epoch was evicted, out
// is left unspecified and the error is recorded in Err.
func (v *View) CorenessManyInto(us []uint32, out []float64) uint64 {
	v.read(us, out)
	return v.epoch
}

// readAll collects every vertex's estimate at the view's cut, or nil after
// a fixed-read failure.
func (v *View) readAll() []float64 {
	scores := make([]float64, v.eng.NumVertices())
	if v.read(nil, scores) != nil {
		return nil
	}
	return scores
}

// TopK returns the k vertices with the highest coreness estimates, ranked
// over one committed cut (ties broken by vertex id): the view's fixed
// epoch, or the latest one (re-pinning a floating view to it). On a fixed
// view whose epoch was evicted it returns nil and records the error in
// Err.
func (v *View) TopK(k int) []uint32 {
	scores := v.readAll()
	if scores == nil {
		return nil
	}
	return apps.TopSpreaders(scores, k)
}

// CoreBucket is one bar of a coreness histogram: Count vertices whose
// estimate equals Coreness at the served epoch.
type CoreBucket struct {
	Coreness float64
	Count    int
}

// Histogram returns the distribution of coreness estimates over all
// vertices — one bucket per distinct estimate, ascending — computed from
// one committed cut (the view's fixed epoch, or the latest one). Estimates
// take few distinct values (one per level group), so the buckets are built
// by sorting the scores buffer in place and run-length encoding it — no
// per-vertex map insertions. On a fixed view whose epoch was evicted it
// returns nil and records the error in Err.
func (v *View) Histogram() []CoreBucket {
	scores := v.readAll()
	if scores == nil {
		return nil
	}
	sort.Float64s(scores)
	var out []CoreBucket
	for i := 0; i < len(scores); {
		j := i + 1
		for j < len(scores) && scores[j] == scores[i] {
			j++
		}
		out = append(out, CoreBucket{Coreness: scores[i], Count: j - i})
		i = j
	}
	return out
}
