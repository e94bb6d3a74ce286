"""The OpenBLAS core numpy runs its products on, so a failure that depends on
BLAS rounding can name it. OpenBLAS picks the core at load time from the CPU,
or from ``OPENBLAS_CORETYPE``; numpy's build target (``np.__config__``) can
differ from it."""

import ctypes

import numpy as np

# the core's name getter, by the prefixes and suffixes OpenBLAS builds use
GETTERS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
           "openblas_get_corename64_", "openblas_get_corename")
# the core the committed runs/ were made on
COMMITTED_CORE = "SkylakeX"


def is_openblas() -> bool:
    return "openblas" in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]


def openblas_core() -> str:
    """The running OpenBLAS core ("SkylakeX", "Haswell", ...), or "unknown"."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in GETTERS:
                if hasattr(lib, name):
                    getter = getattr(lib, name)
                    getter.argtypes, getter.restype = [], ctypes.c_char_p
                    return getter().decode()
    except OSError:
        pass
    return "unknown"
