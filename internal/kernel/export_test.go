package kernel

// TemplateBuilds returns how many aged templates this process built.
func TemplateBuilds() int64 { return templateBuilds.Load() }

// Template returns the aged template NewAged copies for these
// arguments, building it if needed. Callers must only read it.
func Template(cfg Config, seed int64, churn int) *Allocator {
	return agedTemplate(cfg.withDefaults(), seed, churn).alloc
}
