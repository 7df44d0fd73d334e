//go:build race

package csvio

func init() { raceEnabled = true }
