"""The validation kernel's backend name.

The kernel has one implementation: the pure-python fused loop in
:mod:`repro.core.castkernel` over the flat tables of
:mod:`repro.automata.compiled` and :mod:`repro.schema.pairkernel`.
"""

from __future__ import annotations

__all__ = ["backend_name"]


def backend_name() -> str:
    """Always ``"py"``.

    Bench records (:mod:`repro.bench.reporting` and the layer ledger)
    stamp this as ``kernel_backend``, so records taken before and after
    the kernel had a single implementation stay comparable.
    """
    return "py"
