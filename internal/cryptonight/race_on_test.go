//go:build race

package cryptonight

const raceEnabled = true
