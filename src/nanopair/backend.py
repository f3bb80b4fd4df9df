"""A placeholder that the benchmark harness still imports.

`perfbench/harness.py` passes `SerialBackend()` as `backend=` to
`nanopair.driver.rank_program` and `nanopair.potential.compute_forces`.
Both ignore it: a force call is always one serial call of the compiled loop.
The next benchmark change drops that import and those arguments; then this
module and both `backend` parameters go.
"""

__all__ = ["SerialBackend"]


class SerialBackend:
    """Accepted and ignored (see the module docstring)."""
