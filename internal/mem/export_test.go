package mem

// HitRate returns hits/accesses, or 0 for an idle cache.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}
