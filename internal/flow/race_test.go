//go:build race

package flow

func init() { raceEnabled = true }
