"""Object-centric memory graphs for embodied instruction following.

The package builds a persistent memory graph from prior user-agent episodes
(object nodes anchored by semantic fact nodes and episodic trajectory nodes),
retrieves and grounds target objects for new instructions, and evaluates a
hierarchical navigation agent against memory-free baselines in a deterministic
synthetic house world.

The modules are the API (`polar.world`, `polar.scenarios`, `polar.agent`,
`polar.distiller`, `polar.graph`, `polar.retrieval`, `polar.evaluation`,
`polar.cli`); the package itself re-exports nothing, so `import polar` loads
no submodule.
"""
