// Command perfbench runs the repository benchmark; see package perfbench
// and run.sh, which builds and runs it.
package main

import (
	"fmt"
	"os"

	"debugtuner/perfbench"
)

func main() {
	if err := perfbench.Main(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
