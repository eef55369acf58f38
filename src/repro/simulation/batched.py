"""Where :func:`~repro.orbits.kepler.batch_positions` stays importable
for the end-to-end benchmark's stage tracer, which wraps it here by
module attribute name; the package itself calls it from
:mod:`repro.orbits.kepler`.
"""

from repro.orbits.kepler import batch_positions  # noqa: F401
