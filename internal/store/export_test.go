package store

// CounterNames lists the counter table's wire names in table order,
// for the surface tests in the external test package.
func CounterNames() []string {
	names := make([]string, numCounters)
	for c, row := range counterTable {
		names[c] = row.name
	}
	return names
}
