package volcano

// SubtreePrints exposes a query's warm-start seed fingerprints, in
// pre-order, to the external tests.
func (q *Query) SubtreePrints() (fps []uint64, canons []string) {
	q.print()
	for _, s := range q.subs {
		fps = append(fps, s.fp)
		canons = append(canons, s.canon)
	}
	return fps, canons
}
