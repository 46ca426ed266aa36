package main

import (
	"os"
	"testing"

	"drftest/internal/golden"
)

// TestMain doubles as the apptest command: re-executing the test
// binary with golden.RunMainEnv set runs main on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv(golden.RunMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenAppSuite: the whole suite at the default worker count
// prints the committed report, byte for byte outside host time.
func TestGoldenAppSuite(t *testing.T) {
	golden.Check(t, "apptest_scale0.05.txt", "apptest -scale 0.05", golden.RunMain(t, "-scale", "0.05"))
}
