package ptx

// Size returns the type's size in bytes.
func (t Type) Size() int {
	switch t {
	case TU64:
		return 8
	case TPred:
		return 0
	default:
		return 4
	}
}
