//go:build race

package lockin

func init() { raceEnabled = true }
