// The benchmark is a module of its own so that it builds with its own build
// file and stays out of the root module's `go build ./...`; the module path
// keeps the disttrain/ prefix so disttrain/internal/... remains importable.
module disttrain/bench

go 1.22

require disttrain v0.0.0

replace disttrain => ../
