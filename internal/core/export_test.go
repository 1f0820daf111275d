package core

// The scanning reference mechanisms of onlineref_test.go, exported to the
// differential tests in package core_test.
type (
	RefAdditiveGame = refAdditiveGame
	RefAddOn        = refAddOn
	RefSubstOn      = refSubstOn
)

var (
	NewRefAdditiveGame = newRefAdditiveGame
	NewRefSubstOn      = newRefSubstOn
)
