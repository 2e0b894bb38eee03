"""The OpenBLAS kernel under numpy, for tests that pin artifact bytes.

numpy's small matrix products go through its bundled OpenBLAS, which
picks a kernel per CPU (or as OPENBLAS_CORETYPE says), and kernels
round differently; so byte pins are recorded per kernel.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest

# the name getter of numpy's bundled scipy-openblas (64-bit ints)
_CORENAME = "scipy_openblas_get_corename64_"


def openblas_kernel() -> str | None:
    """The name numpy's bundled OpenBLAS gives its running kernel, e.g.
    SkylakeX; None when no bundled library exports the getter."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        # dlopen of a loaded library returns the instance numpy uses
        get = getattr(ctypes.CDLL(str(path)), _CORENAME, None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


def pins_for_kernel(pins: dict):
    """pins[kernel] for the running kernel; a kernel without recorded
    pins fails the test and names the kernel."""
    kernel = openblas_kernel()
    if kernel not in pins:
        pytest.fail(
            f"no pinned digests for OpenBLAS kernel {kernel!r} (pinned: {sorted(pins)});"
            " record them under this kernel"
        )
    return pins[kernel]
