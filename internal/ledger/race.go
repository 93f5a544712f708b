//go:build race

package ledger

const raceEnabled = true
