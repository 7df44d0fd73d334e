//go:build race

package microfluidic

func init() { raceEnabled = true }
