"""Build hook: compiles the optional reachability kernel.

`pip install -e . --no-build-isolation` (or `python3 setup.py build_ext
--inplace`) builds confounders._kernels._fast from the hand-written C file
`src/confounders/_kernels/_fast.c` when a C compiler and the Python headers
are available. The extension is optional, so a failed compile still leaves
a working install that uses the pure-Python kernel at import.
"""
from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "confounders._kernels._fast",
            ["src/confounders/_kernels/_fast.c"],
            optional=True,
        )
    ]
)
