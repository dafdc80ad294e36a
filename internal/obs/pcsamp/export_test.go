package pcsamp

// Proto returns the uncompressed profile.proto bytes that WritePprof
// gzips; the golden test compares these.
func (p *Profile) Proto() []byte { return p.proto() }
