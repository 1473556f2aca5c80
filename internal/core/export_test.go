package core

// The crash-point names, exported to tests so fault injectors can arm
// them (fault.Injector.FailPoint) without duplicating string literals.
const (
	PointExecuted        = pointExecuted
	PointLogged          = pointLogged
	PointCheckpointSaved = pointCheckpointSaved
)

// KickAutoMaintain nudges the auto-maintenance worker as an apply that
// leaves rules stale does, so tests can start a pass in a state no apply
// can reach (a degraded system refuses every apply).
func (s *System) KickAutoMaintain() { s.kickAutoMaintain() }
