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
)
