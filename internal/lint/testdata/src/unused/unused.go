// Package unused is unused-analyzer golden testdata.
package unused

// Exported identifiers are API: never reported.
func Exported() int { return used() + int(limit) }

func used() int { return counter }

var counter int

const limit = 3

func dead() {} // want "unused func dead"

func onlyTests() int { return 1 } // want "unused func onlyTests"

// recursive refers only to itself, which does not count.
func recursive(n int) int { // want "unused func recursive"
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

type orphan struct{} // want "unused type orphan"

// method is unexported and uncalled; its receiver does not count as a use
// of orphan.
func (orphan) method() {} // want "unused method method"

var stale = 1 // want "unused var stale"

const (
	kept    = 1
	dropped = 2 // want "unused const dropped"
)

// Methods reachable through an interface are used even though no call
// names the concrete method.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

func Area(s shape) int { return s.area() + kept }

var _ shape = square{}

// An intentional keeper carries a reasoned suppression.
//
//smartconf:allow unused -- kept as the reference the tests compare against
func reference() int { return 2 }

// A reason-less suppression is inert, so the finding still fires.
//
//smartconf:allow unused
func unreasoned() {} // want "unused func unreasoned"
