// The benchmark is its own module so that the repository's build file and
// `go build ./... && go test ./...` at the root are untouched by it. The
// module path sits under kcore/ so it may import kcore/internal/... for the
// per-layer replay; the replace directive binds it to the working tree.
module kcore/benchmark

go 1.22

require kcore v0.0.0

replace kcore => ../
