// Command reachfix is the product root of the module TestReachabilityFixture
// checks: what it uses is kept, and lib_test.go's uses do not count.
package main

import (
	"encoding/json"
	"fmt"

	"reachfix/internal/lib"
)

func main() {
	k := lib.Knobs{Used: 1, Unread: 2}
	var f lib.Flags
	lib.Parse(&f)
	s := lib.NewState()
	s.Bump(3)
	out, _ := json.Marshal(lib.Report{Count: s.Hits()})
	fmt.Println(lib.Run(k, f), lib.Pair{3, 4}.Sum(), string(out))
	lib.Walk(&lib.Walker{})
}
