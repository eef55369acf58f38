"""A networkx that cannot be imported.

CI puts this directory first on PYTHONPATH for the seeded sweeps
(``smoke.sh``) and for every example, so a run that imports networkx
fails there.  The package computes nothing with networkx: snapshots
only expose networkx views for the end-to-end benchmark and the tests.
The benchmark harness, whose scalar references use networkx, runs
without this directory.
"""

raise ImportError("networkx is unimportable in this run")
