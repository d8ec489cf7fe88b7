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
    # the weighted quadrature embeds the negative-mode half of each
    # coefficient line without its Gevrey weight
    ("spectral.py", "write(out[head + (slice(2 * n - half, 2 * n),)]",
     "_copy(out[head + (slice(2 * n - half, 2 * n),)]",
     "tests/test_spectral.py::test_the_slab_gevrey_weight_is_the_whole_grid_"
     "weight[3-10-3.0-slab-straddles-cut-split]"),
    # the fold adds each negative mode one place off, -(k+1) onto k, and
    # never reads -1
    ("norms.py", "slice(n - 1, h, -1)", "slice(n - 2, h - 1, -1)",
     "tests/test_norms.py::"
     "test_shell_sums_agree_with_the_whole_grid_oracles[2-18]"),
    # the Gevrey weight without its <xi>^{2s}: an e^{2 sigma|xi|} norm only
    ("norms.py", " * (1.0 + xi * xi) ** s", "",
     "tests/test_norms.py::"
     "test_shell_sums_agree_with_the_whole_grid_oracles[1-10]"),
    # the envelope's shells rounded down, not to the nearest 2 pi/L
    ("norms.py", "np.rint(np.sqrt(j))", "np.floor(np.sqrt(j))",
     "tests/test_norms.py::test_shell_envelope_is_the_whole_grid_envelope[3-18]"),
    # the product lattice rule admits a product that reaches +N/2, which
    # the coarse lattice aliases onto -N/2
    ("spacetime.py", "np.all(2 * reach < shape)", "np.all(2 * reach <= shape)",
     "tests/test_spacetime.py::"
     "test_products_reaching_half_the_lattice_stay_on_the_2x_lattice[k3-3-3]"),
    # the product's reach taken as the widest factor's, not the sum of the
    # three: one wide factor and two narrow ones alias on the coarse lattice
    ("spacetime.py",
     "sum(_reach(w.coeffs != 0) for w in (w1, w2, w3))",
     "np.maximum.reduce([_reach(w.coeffs != 0) for w in (w1, w2, w3)])",
     "tests/test_spacetime.py::"
     "test_products_reaching_half_the_lattice_stay_on_the_2x_lattice[k5-2-2]"),
    # the negative corner one entry early on the finer lattice: the pad
    # writes the negative modes one place down and leaves the last entry
    # zero, and the cut reads them from there
    ("spectral.py", "slice(nb - n // 2, nb)", "slice(nb - n // 2 - 1, nb - 1)",
     "tests/test_spectral.py::"
     "test_dealiased_product_is_exactly_the_seed_formula[1-64-9.0]"),
)
