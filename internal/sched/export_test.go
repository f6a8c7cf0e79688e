package sched

// Exported to this package's sched_test files, which run internal/core's
// schedulers on the fixtures here: core imports sched, so those tests
// cannot live in package sched.
var (
	SynthReq         = synthReq
	SynthLUT         = synthLUT
	TieGridStream    = tieGridStream
	EngineInvariants = engineInvariants
)
