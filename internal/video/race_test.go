//go:build race

package video

func init() { raceEnabled = true }
