package obshttp

import "time"

// withKeepAlive sets how long a tail of s stays silent before it writes
// a keep-alive comment (5 s outside tests). Call it before s serves.
func (s *Server) withKeepAlive(d time.Duration) *Server {
	s.keepAlive = d
	return s
}
