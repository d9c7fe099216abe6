"""Dense matrix primitives: norms, statistical dimension, augmentation."""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import RankDeficiencyError, ShapeError

_RANK_TOL = 1e-12
_SLICE_BYTES = 3 << 15  # about 96 KiB of floats decoded at a time


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float array, rejecting empty or non-finite input."""
    M = np.asarray(values, dtype=float)
    if M.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={M.ndim}")
    if M.size == 0:
        raise ShapeError(f"{name} must be non-empty")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return M


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float array, rejecting empty or non-finite input."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.size == 0:
        raise ShapeError(f"{name} must be non-empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return v


def encode_array(values) -> dict:
    """The JSON form of a float64 array: its base64 little-endian bytes and shape."""
    a = np.asarray(values, dtype="<f8", order="C")
    text = binascii.b2a_base64(a, newline=False).decode("ascii")
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
    to itself; a slice of 3k bytes encodes apart from its neighbours, so this
    is as strict as re-encoding the whole text.
    """
    grid = out if out.ndim == 2 else out[:, None]
    width = grid.shape[1]
    rows = 3 * max(1, _SLICE_BYTES // (24 * max(width, 1)))  # 3 | rows, so 3 | bytes
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
            raise ShapeError(
                f"design has {aprime.shape[0]} rows but response has "
                f"{response.shape[0]} entries"
            )
        aprime[:, -1] = response
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
        T = np.linalg.qr(augment(self), mode="r")
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


def entrywise_p_norm(M, p: float) -> float:
    """(sum_ij |M_ij|^p)^(1/p) for p >= 1."""
    M = as_matrix(M)
    if not np.isfinite(p) or p < 1:
        raise ValueError(f"p must be a finite real >= 1, got {p}")
    return float(np.sum(np.abs(M) ** p) ** (1.0 / p))


def induced_norm_upper(M, p: float) -> float:
    """Upper bound on the operator norm sup_x ||Mx||_p / ||x||_p.

    Exact for p in {1, 2, inf} (max column sum, top singular value, max row
    sum).  Other p use the interpolation bound
    ||M||_1^(1/p) * ||M||_inf^(1-1/p), which always dominates the true norm.
    """
    M = as_matrix(M)
    if p != np.inf and (not np.isfinite(p) or p < 1):
        raise ValueError(f"p must be >= 1 or inf, got {p}")

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
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    return float(np.sum(1.0 / (1.0 + lam / sigma**2)))


def check_full_column_rank(sigma: np.ndarray, what: str = "matrix") -> None:
    """Raise RankDeficiencyError when the smallest singular value vanishes."""
    if sigma.size == 0 or sigma[-1] <= sigma[0] * _RANK_TOL:
        raise RankDeficiencyError(f"{what} is rank deficient")
