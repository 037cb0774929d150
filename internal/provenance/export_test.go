package provenance

// CloseStoreBeneath closes l's durable store without detaching it, as a
// failed disk would leave it: later writes reach the closed store.
func CloseStoreBeneath(l *Log) error { return l.store.Close() }
