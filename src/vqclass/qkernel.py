"""Exact pairwise state-overlap (fidelity) kernels of encoded states.

Entry (i, j) is |<phi(b_j)|phi(a_i)>|^2 of two batches of states from
``featmap.encode``, so a same-set Gram matrix is symmetric, unit-diagonal,
and positive semidefinite up to float roundoff. The caller encodes each
batch once; one matrix product gives all overlaps, and the CSV export
yields one row's line at a time.

The export writes each value exactly as ``"%.17g" % v`` does, but numpy
formats a chunk of whole rows at a time (``CHUNK_VALUES`` values), so
Python runs once per row. For v in [1e-4, 1) the 17 significant digits
are the integer d nearest v * 10^k, where k = 16 - floor(log10 v) is in
[17, 20] and comes from comparing v with the doubles 1e-3, 1e-2 and 1e-1,
so 10^k is an exact double. Dekker's product (Veltkamp split by 2^27 + 1;
each ufunc call rounds once, so nothing is fused) gives hi + lo ==
v * 10^k exactly; hi is at least 2^53, so an even integer, and
d = hi + rint(lo) is the product rounded half to even, as ``%.17g``
rounds. Each value becomes a 32-byte cell: ",0.", its leading zeros and
d in groups of three digits from a 1000-entry table, trailing zeros
dropped; the nul and space bytes that pad the cells are deleted from
the chunk's text. Every other value (0, 1, below 1e-4, negative, NaN,
inf), and any whose d does not have 17 digits, is written into its cell
by Python's own ``%.17g``, one format string for all of a chunk's such
values.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .errors import BindingError

CHUNK_VALUES = 4096  # values formatted per numpy pass: bounds the export's memory
_SPLITTER = 134217729.0  # 2^27 + 1


def _split(a):
    """(hi, lo) with hi + lo == a exactly and at most 26 significant bits each."""
    t = a * _SPLITTER
    hi = t - (t - a)
    return hi, a - hi


def _words(texts: list[bytes]) -> np.ndarray:
    """Each text of at most 4 bytes, nul-padded, as one little-endian uint32."""
    return np.array(texts, "S4").view("<u4")


_DECADES = np.array([1e-3, 1e-2, 1e-1])  # each double is above its decimal value
_SCALES = np.array([1e20, 1e19, 1e18, 1e17])  # 10^k by decade index
_SCALES_HI, _SCALES_LO = _split(_SCALES)
_ZEROS = _words([b"0" * (3 - i) for i in range(4)])  # leading zeros by decade index
# entry g is g's three digits; entry 1000 + g the same without trailing zeros
_GROUPS = _words([b"%03d" % g for g in range(1000)]
                 + [(b"%03d" % g).rstrip(b"0") for g in range(1000)])


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(decade index i, d): each x in [1e-4, 1), rounded to 17 significant
    digits, is d * 10^-k with k = 20 - i."""
    i = np.searchsorted(_DECADES, x, side="right")
    scale_hi, scale_lo = _SCALES_HI[i], _SCALES_LO[i]
    x_hi, x_lo = _split(x)
    hi = x * _SCALES[i]
    lo = ((x_hi * scale_hi - hi) + x_hi * scale_lo + x_lo * scale_hi) + x_lo * scale_lo
    return i, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _lines(values: np.ndarray, cols: int) -> list[str]:
    """The lines of ``values``, whole rows of ``cols`` (flat float64), each
    without its row id: every value as ``",%.17g"``, less the first comma."""
    fast = (values >= 1e-4) & (values < 1.0)
    i, d = _digits(np.where(fast, values, 0.5))
    fast &= (d >= 10**16) & (d < 10**17)
    # 32 bytes a value: ",0." | leading zeros | 2 digits | 5 groups of 3 digits
    cells = np.empty((values.size, 8), "<u4")
    cells[:, 0] = _words([b",0."])
    cells[:, 1] = _ZEROS[i]
    strip = np.full(values.size, 1000)  # stripped entries until a nonzero group
    for col in range(7, 1, -1):
        rest = d // 1000
        group = d - rest * 1000
        cells[:, col] = _GROUPS[group + strip]
        strip *= group == 0
        d = rest
    cells[:, 2] >>= 8  # d's leading group, "0dd", has two digits
    text = cells.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:  # space-padded into the 31 bytes after each cell's comma
        fallback = b"%-31.17g" * slow.size % tuple(values[slow].tolist())
        text[slow, 1:] = np.frombuffer(fallback, np.uint8).reshape(-1, 31)
    text[::cols, 0] = ord("\n")
    return text.tobytes().translate(None, b"\0 ").decode("ascii").split("\n")[1:]


def kernel_matrix(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Fidelity of each row of ``states_a`` against each row of ``states_b``,
    both of shape (N, 2^n): an (|A|, |B|) array clipped into [0, 1]."""
    values = np.abs(states_a @ states_b.conj().T)
    np.square(values, out=values)
    return np.clip(values, 0.0, 1.0, out=values)


def kernel_to_csv(values: np.ndarray, row_ids: Sequence, col_ids: Sequence) -> Iterator[str]:
    """The CSV lines, without newlines: the id header, then each row's id and
    17-significant-digit values, formatted only when the row's chunk is asked for."""
    if np.shape(values) != (len(row_ids), len(col_ids)):
        raise BindingError(f"kernel values of shape {np.shape(values)} do not fit "
                           f"{len(row_ids)} row ids and {len(col_ids)} column ids")
    yield ",".join(["id", *map(str, col_ids)])
    cols = len(col_ids)
    if not cols:
        yield from map(str, row_ids)
        return
    step = max(1, CHUNK_VALUES // cols)
    for start in range(0, len(row_ids), step):
        block = np.asarray(values[start:start + step], np.float64).ravel()
        for rid, line in zip(row_ids[start:start + step], _lines(block, cols)):
            yield f"{rid},{line}"
