// The benchmark is a module of its own so that it builds with its own build
// file and stays out of the root module's `go build ./...`; the replace
// directive lets it import the engine's internal packages (the import-path
// rule for internal/ only asks that the importer's path start with "repro/").
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
