//go:build race

package drbg

func init() { raceEnabled = true }
