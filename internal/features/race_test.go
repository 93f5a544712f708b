//go:build race

package features

func init() { raceEnabled = true }
