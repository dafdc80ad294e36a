package pcsamp

// Proto returns the uncompressed profile.proto bytes that WritePprof
// gzips; the golden test compares these.
func (p *Profile) Proto() []byte { return p.proto() }

// Cycles estimates the total cycles the profile attributes.
func (p *Profile) Cycles() uint64 { return p.TotalSamples() * p.Period }

// Launches returns how many launches have completed into the profile.
func (s *Sampler) Launches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prof.Launches
}
