// Command bughunt demonstrates the §V case studies: inject one of the
// four bug classes into the VIPER protocol and watch the tester find
// it, printing the Table V-style report and the transaction window a
// designer would debug from.
//
// Usage:
//
//	bughunt [-bug lostwrite|nonatomic|dropack|staleacquire|all] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"drftest/internal/harness"
	"drftest/internal/viper"
)

func main() {
	bug := flag.String("bug", "all", "bug to inject: "+strings.Join(viper.BugNames(), "|")+"|all")
	seed := flag.Uint64("seed", 1, "starting seed (hunts across 16 seeds)")
	flag.Parse()

	bugs := viper.Bugs
	if *bug != "all" {
		set, err := viper.ParseBug(*bug)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		bugs = []viper.Bug{{Name: *bug, Set: set}}
	}

	missed := 0
	for _, b := range bugs {
		fmt.Printf("=== injecting %s ===\n", b.Name)
		if !hunt(b.Set, *seed) {
			fmt.Println("bug NOT detected within 16 seeds")
			missed++
		}
		fmt.Println()
	}
	if missed > 0 {
		os.Exit(1)
	}
}

func hunt(bugs viper.BugSet, seed uint64) bool {
	for s := seed; s < seed+16; s++ {
		sys, cfg := harness.BugHuntConfigs(bugs, s)
		rep := harness.NewGPURun(sys, cfg).Tester.Run()
		if rep.Passed() {
			continue
		}
		f := rep.Failures[0]
		fmt.Printf("seed %d: detected after %d ops, %d sim ticks (%s wall)\n",
			s, rep.OpsCompleted, rep.SimTicks, rep.WallTime)
		fmt.Println(f.TableV())
		return true
	}
	return false
}
