// The benchmark is a module of its own so that it builds from its own
// build file and stays out of the root module's ./... patterns; the
// replace points it at the simulator it measures.
module repro/bench

go 1.21

require repro v0.0.0

replace repro => ../
