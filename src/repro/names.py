"""The names the ``mlpsim`` parser and the service protocol offer as choices.

This module imports nothing, so building the command-line parser loads
none of the modules the names belong to.  Their owners re-export them:
``repro.harness.figures.ALL_WORKLOADS`` is that tuple, and
``repro.core.backend.backend_names()`` lists the same built-in backends
(``tests/test_import_surface.py`` checks that it does).
"""

#: The four calibrated workload profiles, in the paper's order.
ALL_WORKLOADS = ("database", "tpcw", "specjbb", "specweb")

#: Built-in execution backends, sorted, as ``backend_names()`` returns them.
BACKENDS = ("event", "reference")
