package lint

// All returns the full adavplint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{DetRand, HotAlloc, BandSafe, LeakyGo, PoolPair}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Names returns every analyzer name in reporting order — the valid values
// for a -only flag.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}
