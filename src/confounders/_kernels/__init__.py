"""Kernel selection: the compiled extension when it is built, pure Python
otherwise. Both backends answer every query the same way."""
try:
    from ._fast import BACKEND, BitDag  # type: ignore[attr-defined]
except ImportError:
    from ._pure import BACKEND, BitDag

__all__ = ["BitDag", "BACKEND"]
