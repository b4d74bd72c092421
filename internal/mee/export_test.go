package mee

// IdleSession runs the active policy's recovery plan as a session that
// serves nothing, stepping every rebuild chunk leaves at a time: what
// BeginRecovery, Step and Finish do for an Online plan, for any plan.
func IdleSession(c *Controller, now uint64, chunk int) (RecoveryReport, error) {
	c.enter()
	defer c.exit()
	s := c.begin(c.policy.RecoveryPlan())
	if s.prepErr == nil {
		for !s.step(chunk) {
		}
	}
	return s.finish(now)
}
