"""One-line semantic mutants of src/gnls, each with the science test that
must kill it.

An entry is ``(file under src/gnls, old text, new text, killing test)``:
the old text occurs exactly once in the file, and the killing test is a
pytest node id relative to the repository root.  tests/test_mutants.py
applies each mutant to a copy of the package and runs its killing test
there.  tests/test_golden.py never kills a mutant: its hashes fail on every
change, a correct one included, so they cannot tell a wrong change from a
right one.
"""

MUTANTS = (
    # no round-off floor: e^{sigma|xi|} lifts the spectral plateau into
    # every weighted column, which then depends on N
    ("norms.py", "1e-14 * peak", "1e-30 * peak",
     "tests/test_norms.py::test_a_sigma_of_the_resolved_sech_is_independent_of_N"),
    # the law without its (1 + A0) factor: C_fit off by about 1 + A0
    ("harness.py", "s * columns[s][0] ** 2 * (1.0 + columns[s][0])",
     "s * columns[s][0] ** 2",
     "tests/test_harness.py::test_sweep_C_fit_is_the_law_on_the_growth_column"),
    # D(sigma) from the window's two endpoints, not the sup over it
    ("harness.py", "max(max(col) - col[0], 0.0)", "max(col[-1] - col[0], 0.0)",
     "tests/test_harness.py::test_sweep_growth_is_the_sup_over_every_snapshot"),
    # every slab of rows takes the first slab's axis-0 phase factors
    ("_kernels.py", "e[lo:lo + len(v), None]", "e[:len(v), None]",
     "tests/test_integrator.py::"
     "test_linear_only_plane_waves_along_every_axis_are_exact[3-64]"),
    # the L4 quadrature leaves the last x0-row's sum out of its total
    ("spectral.py", "np.sum(sums)", "np.sum(sums[:-1])",
     "tests/test_spectral.py::"
     "test_l4_quadrature_is_within_1e_15_of_long_double[2-64-10.0]"),
    # the embed's negative modes land one place early, and the last place
    # of each line goes unwritten
    ("spectral.py", "out[head + (slice(2 * n - half, 2 * n),)]",
     "out[head + (slice(2 * n - half - 1, 2 * n - 1),)]",
     "tests/test_spectral.py::"
     "test_slab_l4_equals_the_whole_array_quadrature[3-10-3.0-slab-7]"),
)
