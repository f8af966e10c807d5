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

	// Utilisation accounting.
	busy   Time // total service time granted
	waited Time // total queueing delay experienced
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
	s.UseAt2(s.eng.Now(), service, fn, arg)
}

// UseAt2 is Use2 for a request that arrived at the given time: service
// starts no earlier than now, but queueing delay is counted from arrive.
func (s *Server) UseAt2(arrive, service Time, fn func(any), arg any) {
	s.eng.At2(s.admit(arrive, service), fn, arg)
}

// admit performs the FIFO bookkeeping of Use2 and UseAt2 and returns
// the request's completion time.
func (s *Server) admit(arrive, service Time) Time {
	if service < 0 {
		panic("sim: negative service time")
	}
	now := s.eng.Now()
	start := s.freeAt
	if start < now {
		start = now
	}
	finish := start + service
	s.freeAt = finish
	s.busy += service
	if start > arrive {
		s.waited += start - arrive
	}
	return finish
}

// Busy returns the total service time granted so far.
func (s *Server) Busy() Time { return s.busy }

// Waited returns the total queueing delay experienced by all requests.
func (s *Server) Waited() Time { return s.waited }

// Utilisation returns busy time divided by elapsed time, in [0, 1].
func (s *Server) Utilisation() float64 {
	if s.eng.Now() == 0 {
		return 0
	}
	u := float64(s.busy) / float64(s.eng.Now())
	if u > 1 {
		u = 1
	}
	return u
}
