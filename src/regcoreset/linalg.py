"""Dense matrix primitives: norms, statistical dimension, augmentation."""

from __future__ import annotations

import binascii
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RankDeficiencyError, ShapeError

_RANK_TOL = 1e-12


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


def decode_array(doc: dict, name: str = "array") -> np.ndarray:
    """Read `encode_array`'s form back bit for bit; ValueError if it is malformed."""
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
    try:
        data = binascii.a2b_base64(text)
    except ValueError as exc:
        raise ValueError(f"{name} base64 is invalid: {exc}") from None
    # a2b_base64 skips stray characters; only canonical text re-encodes to
    # itself.  Base64 maps 3-byte blocks independently, so compare by slices.
    view, step = memoryview(data), 3 << 18
    if len(text) != 4 * -(-len(data) // 3) or any(
        binascii.b2a_base64(view[k:k + step], newline=False).decode("ascii")
        != text[k // 3 * 4:(k + step) // 3 * 4]
        for k in range(0, len(data), step)
    ):
        raise ValueError(f"{name} base64 is not canonical base64 text")
    if len(data) != 8 * math.prod(shape):
        raise ValueError(f"{name} holds {len(data)} bytes, shape {shape} needs "
                         f"{8 * math.prod(shape)}")
    return np.frombuffer(data, dtype="<f8").reshape(shape)


@dataclass(frozen=True)
class RegressionInstance:
    """A design matrix paired with a response vector.

    The instance owns read-only copies of both arrays, so nothing the caller
    does afterwards can change it, and it caches its squared-loss factor.
    Tallness (n >= d) is not required here; operations that need it, such as
    basis construction and leverage scores, check it themselves.  Each array
    may also be given in `encode_array`'s form, as an instance file holds it.
    """

    design: np.ndarray
    response: np.ndarray

    def __post_init__(self):
        design, response = (  # a freshly decoded array is already a read-only copy
            decode_array(values, name) if isinstance(values, dict)
            else np.array(values, dtype=float)
            for values, name in ((self.design, "design"), (self.response, "response"))
        )
        design = as_matrix(design, "design")
        response = as_vector(response, "response")
        if design.shape[0] != response.shape[0]:
            raise ShapeError(
                f"design has {design.shape[0]} rows but response has "
                f"{response.shape[0]} entries"
            )
        design.flags.writeable = False
        response.flags.writeable = False
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "response", response)

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
    """Return [A  b]: the response glued on as an extra trailing column."""
    return np.hstack([instance.design, instance.response[:, None]])


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
