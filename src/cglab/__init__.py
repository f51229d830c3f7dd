"""CG-style solvers, analytic test problems, and performance profiling."""
