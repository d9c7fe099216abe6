"""Dense matrix primitives (norms, statistical dimension, augmentation, tall QR), input rules."""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .errors import RankDeficiencyError, ShapeError

_RANK_TOL = 1e-12
_SLICE_BYTES = 3 << 15  # about 96 KiB of floats encoded or decoded at a time
# Rows per block of a pass over the n rows: a block of [A b] and the (d+1)-row
# factor it is stacked on stay in cache, and no pass copies all n rows.
_BLOCK_ROWS = 1024


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting empty or non-finite input."""
    return _as_array(values, name, 2)


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float array, rejecting empty or non-finite input."""
    return _as_array(values, name, 1)


def _as_array(values, name: str, ndim: int, indices: bool = False) -> np.ndarray:
    """The rule for every array read: float64, or int64 indices, non-empty and finite.

    An ndarray is judged by its dtype kind, in O(1); anything else by each
    entry's own type, an int or a float and never a bool, since numpy's
    conversion alone reads "1" and true as numbers.  Indices are ints.
    """
    kind, what, dtype = (Integral, "integers", np.int64) if indices else (Real, "numbers", float)
    if not isinstance(values, np.ndarray) or values.dtype == object:
        values = np.array(values, dtype=object)  # references to the entries
        if any(t is bool or not issubclass(t, kind) for t in set(map(type, values.flat))):
            bad = next(v for v in values.flat if type(v) is bool or not isinstance(v, kind))
            raise ValueError(f"{name} entries must be {what}, got {bad!r}")
    elif values.dtype.kind not in ("iu" if indices else "iuf"):
        raise ValueError(f"{name} must hold {what}, got dtype {values.dtype}")
    if values.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-D, got ndim={values.ndim}")
    if values.size == 0:
        raise ShapeError(f"{name} must be non-empty")
    try:
        a = np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} entries must fit in {np.dtype(dtype).name}") from None
    # min and max pass a NaN on, and allocate nothing
    if not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return a


def row_blocks(n: int):
    """Slices of at most _BLOCK_ROWS consecutive rows that cover range(n) in order."""
    return (slice(k, k + _BLOCK_ROWS) for k in range(0, n, _BLOCK_ROWS))


def _slice_rows(width: int) -> int:
    """Rows of `width` floats per base64 slice: about _SLICE_BYTES, and 3 | rows.

    A slice of 3k bytes encodes apart from its neighbours, so the slices'
    texts join to the text of the whole array.
    """
    return 3 * max(1, _SLICE_BYTES // (24 * max(width, 1)))


def base64_slices(a: np.ndarray):
    """The base64 text of a C-contiguous float64 array, a few rows at a time."""
    grid = a if a.ndim == 2 else a.reshape(-1, 1)
    rows = _slice_rows(grid.shape[1])
    for k in range(0, grid.shape[0], rows):
        yield binascii.b2a_base64(grid[k:k + rows], newline=False).decode("ascii")


def encode_array(values, text: str | None = None) -> dict:
    """The JSON form of a float64 array: its base64 little-endian bytes and shape.

    A caller that writes the text itself, from `base64_slices`, passes what
    stands in for it as `text`.
    """
    a = np.asarray(values, dtype="<f8", order="C")
    if text is None:
        text = "".join(base64_slices(a))
    return {"dtype": "<f8", "shape": list(a.shape), "base64": text}


def _array_header(doc: dict, name: str) -> tuple[list, str]:
    """The shape and text of `encode_array`'s form, after every check but decoding."""
    dtype, shape, text = doc.get("dtype"), doc.get("shape"), doc.get("base64")
    if dtype != "<f8":
        raise ValueError(f"{name} dtype must be '<f8', got {dtype!r}")
    if not (
        isinstance(shape, list)
        and len(shape) in (1, 2)
        and all(type(k) is int and k >= 0 for k in shape)
    ):
        raise ValueError(f"{name} shape must list 1 or 2 sizes, got {shape!r}")
    if not isinstance(text, str):
        raise ValueError(f"{name} base64 must be a string")
    nbytes = 8 * math.prod(shape)
    if len(text) != 4 * -(-nbytes // 3):
        raise ValueError(f"{name} base64 has {len(text)} characters, but the {nbytes} "
                         f"bytes of shape {shape} take {4 * -(-nbytes // 3)}")
    return shape, text


def _decode_into(out: np.ndarray, text: str, name: str) -> None:
    """Fill `out` from the canonical base64 of its row-major float64 bytes.

    Decodes a few rows at a time, so `out` may be a view with strided rows
    and no copy of the whole array is made.  The text's length is already
    checked.  a2b_base64 skips stray characters, so each slice must re-encode
    to itself; the slices are those of `base64_slices`, which encode apart
    from each other, so this is as strict as re-encoding the whole text.
    """
    grid = out if out.ndim == 2 else out[:, None]
    width = grid.shape[1]
    rows = _slice_rows(width)
    for k in range(0, grid.shape[0], rows):
        block = grid[k:k + rows]
        start = 8 * k * width // 3 * 4
        chunk = text[start:start + 8 * rows * width // 3 * 4]
        try:
            data = binascii.a2b_base64(chunk)
        except ValueError as exc:
            raise ValueError(f"{name} base64 is invalid: {exc}") from None
        if (len(data) != 8 * block.size
                or binascii.b2a_base64(data, newline=False).decode("ascii") != chunk):
            raise ValueError(f"{name} base64 is not the canonical text of {8 * out.size} bytes")
        block[...] = np.frombuffer(data, dtype="<f8").reshape(block.shape)


def decode_array(doc: dict, name: str = "array") -> np.ndarray:
    """Read `encode_array`'s form back bit for bit; ValueError if it is malformed."""
    shape, text = _array_header(doc, name)
    out = np.empty(shape)
    _decode_into(out, text, name)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RegressionInstance:
    """A design matrix paired with a response vector.

    The instance owns one read-only, C-contiguous copy of [A  b], which
    `augment` returns; `design` and `response` are read-only views of it, so
    nothing the caller does afterwards can change the instance.  It caches
    its squared-loss factor.  Tallness (n >= d) is not required here;
    operations that need it, such as basis construction and leverage scores,
    check it themselves.  Each array may also be given in `encode_array`'s
    form, as an instance file holds it; the design is then decoded straight
    into [A  b].
    """

    design: np.ndarray
    response: np.ndarray
    _aprime: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        design, response = self.design, self.response
        if isinstance(design, dict):
            shape, text = _array_header(design, "design")
            if len(shape) != 2 or 0 in shape:  # as_matrix raises the ShapeError
                as_matrix(decode_array(design, "design"), "design")
            aprime = np.empty((shape[0], shape[1] + 1))
            _decode_into(aprime[:, :-1], text, "design")
            as_matrix(aprime[:, :-1], "design")  # rejects NaN or Inf entries
        else:
            design = as_matrix(design, "design")
            aprime = np.empty((design.shape[0], design.shape[1] + 1))
            aprime[:, :-1] = design
        if isinstance(response, dict):
            response = decode_array(response, "response")
        response = as_vector(response, "response")
        if aprime.shape[0] != response.shape[0]:
            raise ShapeError(f"design has {aprime.shape[0]} rows but response has "
                             f"{response.shape[0]} entries")
        aprime[:, -1] = response
        self._hold(aprime)

    @classmethod
    def _owning(cls, aprime: np.ndarray) -> "RegressionInstance":
        """The instance of a freshly built C-contiguous [A  b], kept without a copy.

        The caller hands the array over: it is checked like any design and
        response, then made read-only, and must not be written afterwards.
        """
        aprime = as_matrix(aprime, "aprime")
        if aprime.shape[1] < 2 or not aprime.flags.c_contiguous:
            raise ShapeError(f"[A  b] must be C-contiguous with >= 2 columns, "
                             f"got shape {aprime.shape}")
        instance = object.__new__(cls)
        instance._hold(aprime)
        return instance

    def _hold(self, aprime: np.ndarray) -> None:
        aprime.flags.writeable = False
        object.__setattr__(self, "_aprime", aprime)
        object.__setattr__(self, "design", aprime[:, :-1])
        object.__setattr__(self, "response", aprime[:, -1])

    @cached_property
    def squared_loss_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """(R, c) with ||Rx - c||_2 = ||Ax - b||_2 for every x, on <= d + 1 rows.

        They are the columns of T in the QR decomposition [A b] = QT, so also
        R^T R = A^T A and R^T c = A^T b.  Computed on first use, read-only.
        """
        T = tall_qr_r(augment(self))
        T.flags.writeable = False
        return T[:, :-1], T[:, -1]

    @property
    def n(self) -> int:
        return self.design.shape[0]

    @property
    def d(self) -> int:
        return self.design.shape[1]


def augment(instance: RegressionInstance) -> np.ndarray:
    """Return [A  b], the response as a trailing column: the instance's own array."""
    return instance._aprime


def tall_qr_r(M: np.ndarray) -> np.ndarray:
    """R of a QR of M, factored _BLOCK_ROWS rows at a time (flat TSQR).

    The first block is factored alone, then each later one stacked under the
    R so far: [R; block] = Q'R' keeps R^T R = M^T M, so the result is the R
    of M up to the signs of its rows, and no call copies more than
    _BLOCK_ROWS + M.shape[1] rows.  At most _BLOCK_ROWS rows take one QR
    call, the one-shot R bit for bit (Demmel, Grigori, Hoemmen & Langou,
    Communication-optimal parallel and sequential QR and LU factorizations,
    arXiv:0808.2664).
    """
    blocks = row_blocks(M.shape[0])
    R = np.linalg.qr(M[next(blocks)], mode="r")
    for rows in blocks:
        R = np.linalg.qr(np.vstack([R, M[rows]]), mode="r")
    return R


def entrywise_p_norm(M, p: float) -> float:
    """(sum_ij |M_ij|^p)^(1/p) for p >= 1."""
    M = as_matrix(M)
    check_exponent(p, "p")
    return float(np.sum(np.abs(M) ** p) ** (1.0 / p))


def induced_norm_upper(M, p: float) -> float:
    """Upper bound on the operator norm sup_x ||Mx||_p / ||x||_p.

    Exact for p in {1, 2, inf} (max column sum, top singular value, max row
    sum).  Other p use the interpolation bound
    ||M||_1^(1/p) * ||M||_inf^(1-1/p), which always dominates the true norm.
    """
    M = as_matrix(M)
    if p != np.inf:
        check_exponent(p, "p")

    def max_abs_sum(axis: int) -> float:  # axis 0: column sums, 1: row sums
        return float(np.max(np.sum(np.abs(M), axis=axis)))

    if p == 1:
        return max_abs_sum(0)
    if p == np.inf:
        return max_abs_sum(1)
    if p == 2:
        return float(np.linalg.svd(M, compute_uv=False)[0])
    return float(max_abs_sum(0) ** (1.0 / p) * max_abs_sum(1) ** (1.0 - 1.0 / p))


def statistical_dimension(singular_values, lam: float) -> float:
    """sum_j 1 / (1 + lam / sigma_j^2); equals the rank when lam = 0."""
    sigma = as_vector(singular_values, "singular_values")
    if np.any(sigma <= 0):
        raise RankDeficiencyError("all singular values must be positive")
    check_lambda(lam)
    return float(np.sum(1.0 / (1.0 + lam / sigma**2)))


def input_rule(kind, holds, must: str, default: str | None = None):
    """A check(value, name=default) that returns a kind (no bool) with holds(value), or raises."""
    def check(value, name: str = default):
        if isinstance(value, bool) or not (isinstance(value, kind) and holds(value)):
            raise ValueError(f"{name} must {must}, got {value!r}")
        return value
    return check


# The package's input rules, each written once; Real takes ints and floats, numpy's too.
check_lambda = input_rule(Real, lambda v: 0 <= v < math.inf, "be finite and >= 0", "lambda")
check_positive = input_rule(Real, lambda v: 0 < v < math.inf, "be positive and finite")
check_fraction = input_rule(Real, lambda v: 0 < v < 1, "lie in (0, 1)")
check_exponent = input_rule(Real, lambda v: 1 <= v < math.inf, "be a finite real >= 1")
check_basis_exponent = input_rule(Real, lambda v: 1 <= v <= 4, "lie in [1, 4]", "p")
check_count = input_rule(Integral, lambda v: v >= 1, "be an integer >= 1")
check_integer = input_rule(Integral, lambda v: True, "be an integer")
check_string = input_rule(str, lambda v: True, "be a string")


def check_list(values, name: str, check) -> list:
    """The entries of a list or tuple, each passed through check(entry, name + ' entry')."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {values!r}")
    return [check(v, f"{name} entry") for v in values]


def check_keys(doc, required, what: str) -> dict:
    """doc, if it is a dict that holds every required key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} does not hold a JSON object")
    missing = set(required) - doc.keys()
    if missing:
        raise ValueError(f"{what} missing keys: {sorted(missing)}")
    return doc


def check_full_column_rank(sigma: np.ndarray, what: str = "matrix") -> None:
    """Raise RankDeficiencyError when the smallest singular value vanishes."""
    if sigma.size == 0 or sigma[-1] <= sigma[0] * _RANK_TOL:
        raise RankDeficiencyError(f"{what} is rank deficient")
