// Package exec mirrors the production executable plan: a plan node
// paired with the factory of the operator that runs it, frozen once
// published inside a prepared statement.
package exec

import "fixture/snapfreeze/internal/plan"

// Tree pairs a plan node with its operator factory.
type Tree struct {
	Node plan.Node
	New  func() int
}
