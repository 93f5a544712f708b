//go:build race

package track

func init() { raceEnabled = true }
