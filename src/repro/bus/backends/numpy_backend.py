"""The default batch backend: numpy's own vectorized array program."""

from __future__ import annotations

from repro.bus.backends.base import BatchBackend


class NumpyBackend(BatchBackend):
    """CPU reference substrate - the batch kernel's native execution.

    Bit-identical by definition (it *is* the kernel's array program) and
    therefore the anchor of the ``simulation-batch@1`` namespace every
    other backend must reproduce.
    """

    name = "numpy"
    extra = "batch"

    def available(self) -> bool:
        from repro.bus.batch import numpy_available

        return numpy_available()

    def require(self):
        # Delegates to the kernel's own importer so the error message
        # (naming the [batch] extra and the stdlib fallback) stays the
        # single one every numpy-missing path raises.
        from repro.bus.batch import require_numpy

        return require_numpy()
