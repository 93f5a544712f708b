//go:build race

package imgproc

func init() { raceEnabled = true }
