"""The OpenBLAS core numpy runs its products on, and numpy's own SIMD dispatch, so a
failure that depends on their rounding can name both; and the cores this CPU can run,
for tests that force each in a child. OpenBLAS picks the core at load
time from the CPU, or from ``OPENBLAS_CORETYPE``; numpy's build target
(``np.__config__``) can differ from it. numpy picks its dispatch targets from the CPU,
less those named in ``NPY_DISABLE_CPU_FEATURES``; float64 ``exp`` and ``log`` round
differently with ``X86_V4`` on and off."""

import ctypes

import numpy as np

# the core's name getter, by the prefixes and suffixes OpenBLAS builds use
GETTERS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
           "openblas_get_corename64_", "openblas_get_corename")
# the core and the dispatch targets the committed runs/ were made on
COMMITTED_CORE = "SkylakeX"
COMMITTED_DISPATCH = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# the OpenBLAS cores an x86-64 CPU can run, by the /proc/cpuinfo flag each needs
CORE_FLAGS = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx",
              "Nehalem": None, "Prescott": None}


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


def cpu_flags() -> set[str]:
    """The CPU's flags from /proc/cpuinfo, or none if it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            return next((set(line.split(":", 1)[1].split()) for line in info
                         if line.startswith("flags")), set())
    except OSError:
        return set()


def simd_dispatch() -> str:
    """numpy's SIMD dispatch targets this CPU runs, as "X86_V3 X86_V4 ...", or "unknown"."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        return "unknown"
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))
