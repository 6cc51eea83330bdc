"""A frozen copy of the confounders package, the benchmark's yardstick.

The modules here are byte-for-byte copies of src/confounders as of the
change that defined the benchmark, with the pure-Python kernel only and
only the modules `fuzz` needs. run.py times a fixed cycle of fuzz trials
on this copy between the measured ops; because this code never changes,
the cycle's CPU time tracks how fast the machine runs at that moment, and
run.py scales the measured times by it (see README.md). Never edit these
files to follow the package: that would move every normalized number.
"""
from .fuzz import FuzzConfig, fuzz

__all__ = ["FuzzConfig", "fuzz"]
