// Fixture: a served library — cmd and other import it. lib_test.go stands
// for the tests; the check never loads it.
package lib

// Served and helper are reached from cmd's main only: a load that leaves
// cmd out sees no caller.
func Served() int { return helper() }

func helper() int { return 1 }

// UsedByOther is reached from other's main.
func UsedByOther() int { return 2 }

// OnlyTests has no caller outside lib_test.go.
func OnlyTests() int { return 3 } // want `OnlyTests is reached only from tests`

// Outer and inner form a chain only tests reach: inner's one caller is
// itself reached only from tests, so both links are reported.
func Outer() int { return inner() } // want `Outer is reached only from tests`

func inner() int { return 4 } // want `inner is reached only from tests`

// Runner is named in cmd's non-test code.
type Runner interface{ Run() int }

// Impl implements Runner, and cmd calls Run through the interface, so Run
// is reached although nothing names Impl.Run.
type Impl struct{}

func (Impl) Run() int { return 5 }

// Lookalike's Run only shares Runner's method name: its signature does not
// implement Runner, so the interface does not reach it.
type Lookalike struct{}

func (Lookalike) Run(n int) int { return n } // want `Lookalike\.Run is reached only from tests`

// Hook is a deliberate test hook.
//
//turbovet:allow testonly -- fixture: a hook that must stay in the served package
func Hook() int { return 6 }

// Label's String is reached through fmt, which asserts fmt.Stringer on the
// values cmd prints.
type Label string

func (l Label) String() string { return "label " + string(l) }
