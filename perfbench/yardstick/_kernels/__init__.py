"""The pure-Python kernel only: the yardstick must not change with a build."""
from ._pure import BACKEND, BitDag

__all__ = ["BitDag", "BACKEND"]
