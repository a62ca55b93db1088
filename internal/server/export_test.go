package server

// UseNaiveMinimizer makes every weave on s run the paper-naive
// minimizer, bypassing the compile cache: a weave slow enough (seconds on the
// slow-weave fixture) for the cancellation and shedding tests to catch
// it mid-minimize.
func UseNaiveMinimizer(s *Server) { s.naiveMinimize = true }
