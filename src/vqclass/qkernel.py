"""Exact pairwise state-overlap (fidelity) kernels of encoded states.

Entry (i, j) is |<phi(b_j)|phi(a_i)>|^2 of two batches of states from
``featmap.encode``, so a same-set Gram matrix is symmetric, unit-diagonal,
and positive semidefinite up to float roundoff. One matrix product gives a
row block's overlaps with the whole right-hand batch. The CLI streams a
kernel through ``row_blocks``: each block's fidelities are computed,
formatted and written before the next block's are, so no N x M array and
no conjugate copy of the right-hand batch exists, and the CSV export yields
one row's line at a time.

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

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BindingError
from .statevec import BLOCK_BYTES

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


def row_blocks(n_rows: int, n_qubits: int, n_cols: int) -> list[slice]:
    """Consecutive slices of ``n_rows`` rows: blocks of the most rows whose states
    (2^n amplitudes each) and whose products with ``n_cols`` states each fit in
    ``BLOCK_BYTES``, but at least 2. A 1-row tail joins the block before it:
    numpy runs a 1-row product as a vector-matrix product, which rounds apart
    from the matrix product the other rows run in."""
    step = max(2, BLOCK_BYTES // (16 * max(1 << n_qubits, n_cols)))  # 16 B per complex
    stops = [*range(step, n_rows - 1, step), n_rows]
    return [slice(start, stop) for start, stop in zip([0, *stops], stops)]


def kernel_matrix(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Fidelity of each row of ``states_a`` against each row of ``states_b``,
    both of shape (N, 2^n): an (|A|, |B|) array clipped into [0, 1]. The left
    operand is the one conjugated, so a row block of A against the whole of B
    copies only the block."""
    values = np.abs(states_a.conj() @ states_b.T)
    np.square(values, out=values)
    return np.clip(values, 0.0, 1.0, out=values)


def _misfit(shape: tuple, row_ids: Sequence, col_ids: Sequence) -> BindingError:
    return BindingError(f"kernel values of shape {shape} do not fit "
                        f"{len(row_ids)} row ids and {len(col_ids)} column ids")


def kernel_to_csv(blocks: Iterable[np.ndarray], row_ids: Sequence,
                  col_ids: Sequence) -> Iterator[str]:
    """The CSV lines, without newlines: the id header, then each row's id and
    17-significant-digit values. ``blocks`` are the kernel's rows, a block of
    (rows, len(col_ids)) values at a time, in order; each is formatted only when
    its lines are asked for, and one that does not fit the ids raises
    BindingError before any of its lines is yielded."""
    cols, done = len(col_ids), 0
    yield ",".join(["id", *map(str, col_ids)])
    step = max(1, CHUNK_VALUES // max(1, cols))
    for block in blocks:
        block = np.asarray(block, np.float64)
        shape = (done + len(block), *block.shape[1:])
        if shape[1:] != (cols,) or shape[0] > len(row_ids):
            raise _misfit(shape, row_ids, col_ids)
        for start in range(0, len(block), step):
            ids = row_ids[done + start:done + start + step]
            if not cols:
                yield from map(str, ids)
                continue
            lines = _lines(block[start:start + step].ravel(), cols)
            for rid, line in zip(ids, lines):
                yield f"{rid},{line}"
        done += len(block)
    if done != len(row_ids):
        raise _misfit((done, cols), row_ids, col_ids)
