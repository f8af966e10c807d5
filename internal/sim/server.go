package sim

// Server models a single-server FIFO resource: at most one request is in
// service at a time and waiters are served in arrival order. It is the
// building block for the flash device queue and the network segments
// ("each segment can carry one packet at a time", paper §5).
//
// Because arrival order equals event order and event order is
// deterministic, tracking only the time the server next becomes free is
// sufficient: a request arriving at time t begins service at max(t, freeAt).
type Server struct {
	eng    *Engine
	freeAt Time

	busy Time // total service time granted (utilisation accounting)
}

// Init attaches the server to the engine, idle and with zeroed
// accounting. Models hold their servers by value (a network segment's two
// wires, an FTL device's die), so a server costs no allocation of its own.
func (s *Server) Init(eng *Engine) { *s = Server{eng: eng} }

// Use2 enqueues a request with the given service duration and runs
// fn(arg) when the request completes service. fn is a static func(any)
// and arg its state, so nothing is allocated per request; a nil fn
// schedules the engine's shared placeholder, so Engine.Run does not
// return while the server is still busy (callers rely on a drained
// engine meaning idle hardware).
func (s *Server) Use2(service Time, fn func(any), arg any) {
	if service < 0 {
		panic("sim: negative service time")
	}
	now := s.eng.Now()
	start := s.freeAt
	if start < now {
		start = now
	}
	s.freeAt = start + service
	s.busy += service
	s.eng.At2(s.freeAt, fn, arg)
}

// Busy returns the total service time granted so far.
func (s *Server) Busy() Time { return s.busy }
