package gstore

// Len returns the number of entries left in the cursor. Only tests ask.
func (it *NeighborIter) Len() int { return len(it.adj32) - it.i }
