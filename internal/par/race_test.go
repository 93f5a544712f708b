//go:build race

package par

func init() { raceEnabled = true }
