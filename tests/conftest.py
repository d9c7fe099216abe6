"""Oracles shared by several test modules."""

import binascii
import itertools
import string

import numpy as np
import pytest

from regcoreset import conditioning, experiments, linalg
from regcoreset.linalg import encode_array


@pytest.fixture(autouse=True)
def _empty_instance_slot(monkeypatch):
    """Every test starts with no memoized experiment instance.

    Counts of instance builds and n-row factorizations then do not depend on
    which test built the same instance before.
    """
    monkeypatch.setattr(experiments, "_INSTANCE_SLOT", {})


@pytest.fixture
def factored_shapes(monkeypatch):
    """The shape of every matrix handed to the QR kernel linalg.tall_qr_r.

    The kernel factors n rows in blocks, so a count of n-row factorizations
    is taken here, not at np.linalg.qr, which never sees all n rows.
    """
    shapes = []
    kernel = linalg.tall_qr_r

    def counting_kernel(M):
        shapes.append(np.shape(M))
        return kernel(M)

    for module in (linalg, conditioning):
        monkeypatch.setattr(module, "tall_qr_r", counting_kernel)
    return shapes


def _l1_vertex_minimum(instance, lam: float) -> float:
    """Exact min of ||Ax - b||_1 + lam*||x||_1 by enumerating vertices.

    The objective is convex and piecewise linear, with kinks on the n + d
    hyperplanes a_i x = b_i and x_j = 0.  For lam > 0 it is coercive, so a
    minimiser lies where d of those hyperplanes meet: solve every nonsingular
    d x d system and keep the least objective.  Costs C(n + d, d) solves, so
    only for small instances.
    """
    A, b = instance.design, instance.response
    n, d = A.shape
    planes = np.vstack([A, np.eye(d)])
    offsets = np.concatenate([b, np.zeros(d)])
    subsets = np.array(list(itertools.combinations(range(n + d), d)))
    systems, rhs = planes[subsets], offsets[subsets]
    regular = np.abs(np.linalg.det(systems)) > 1e-12
    vertices = np.linalg.solve(systems[regular], rhs[regular][..., None])[..., 0]
    values = np.abs(vertices @ A.T - b).sum(axis=1) + lam * np.abs(vertices).sum(axis=1)
    return float(values.min())


@pytest.fixture
def l1_vertex_minimum():
    return _l1_vertex_minimum


def _l1_penalized_least_squares_minimum(instance, lam: float, s: int) -> float:
    """Exact min of ||Ax - b||_2^2 + lam*||x||_1^s (s = 1 or 2) by enumeration.

    On the orthant face with support S and signs sigma the objective is the
    quadratic ||A_S x_S - b||^2 + lam*(sigma^T x_S)^s, whose stationary point
    solves A_S^T A_S x_S = A_S^T b - lam*sigma/2 (s = 1) or
    (A_S^T A_S + lam*sigma sigma^T) x_S = A_S^T b (s = 2).  A stationary
    point with signs sigma meets the KKT conditions on S, so the minimiser is
    the best of those points over every (S, sigma), x = 0 included.  Costs
    3^d small solves, so only for d <= 4.
    """
    A, b = instance.design, instance.response
    d = A.shape[1]
    if d > 4:
        raise ValueError(f"enumeration is for d <= 4, got d={d}")
    G, g = A.T @ A, A.T @ b
    best = float(b @ b)
    for k in range(1, d + 1):
        for support in itertools.combinations(range(d), k):
            S = list(support)
            for signs in itertools.product((-1.0, 1.0), repeat=k):
                sigma = np.array(signs)
                if s == 2:
                    system, rhs = G[np.ix_(S, S)] + lam * np.outer(sigma, sigma), g[S]
                else:
                    system, rhs = G[np.ix_(S, S)], g[S] - lam * sigma / 2.0
                x_S = np.linalg.lstsq(system, rhs, rcond=None)[0]
                if np.all(np.sign(x_S) == sigma):
                    x = np.zeros(d)
                    x[S] = x_S
                    value = np.sum((A @ x - b) ** 2) + lam * np.sum(np.abs(x)) ** s
                    best = min(best, float(value))
    return best


@pytest.fixture
def l1_penalized_least_squares_minimum():
    return _l1_penalized_least_squares_minimum


_BASE64_DIGITS = string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/"


def _set_trailing_bit(doc: dict) -> dict:
    """doc with the low bit of its last base64 digit set.

    With 3k + 2 bytes (text ending in one "=") the last digit carries two
    zero bits past the data, so lenient decoding returns the same bytes:
    1.5, "AAAAAAAA+D8=", becomes "AAAAAAAA+D9=".
    """
    text = doc["base64"]
    assert text.endswith("=") and not text.endswith("==")
    digit = _BASE64_DIGITS[_BASE64_DIGITS.index(text[-2]) | 1]
    return {**doc, "base64": text[:-2] + digit + "="}


@pytest.fixture
def malformed_arrays():
    """Malformed array encodings, each with a word its error names.

    Most spoil the encoding of [[1, 2], [3, 4]].  The late, trailing and
    trailing-bit cases hide a change that lenient base64 decoding ignores
    past the first slices the canonical-text check compares, or after them.
    """
    good = encode_array(np.array([[1.0, 2.0], [3.0, 4.0]]))
    big = encode_array(np.arange(600_000.0).reshape(20_000, 30))
    head, tail = big["base64"][:5_200_000], big["base64"][5_200_000:]
    # A character after a whole number of decoding slices falls outside every
    # slice: 4096 x 24 floats are 1 MiB of text (an earlier slice size), and
    # 12 288 x 1 floats one 96 KiB slice of decoded rows.
    whole_slice = encode_array(np.zeros((4096, 24)))
    whole_rows = encode_array(np.zeros((12_288, 1)))
    return {
        "big-endian": ({**good, "dtype": ">f8"}, "dtype"),
        "float32": ({**good, "dtype": "<f4"}, "dtype"),
        "no dtype": ({"shape": [2, 2], "base64": good["base64"]}, "dtype"),
        "too few bytes": ({**good, "shape": [2, 3]}, "bytes"),
        "too many bytes": ({**good, "shape": [3]}, "bytes"),
        "3-D": ({**good, "shape": [1, 2, 2]}, "shape"),
        "0-D": ({**good, "shape": []}, "shape"),
        "negative size": ({**good, "shape": [-2, -2]}, "shape"),
        "non-integer size": ({**good, "shape": [2.0, 2]}, "shape"),
        "invalid base64": ({**good, "base64": "$" + good["base64"][1:]}, "base64"),
        "bad padding": ({**good, "base64": good["base64"][:-1]}, "base64"),
        "line break": ({**good, "base64": good["base64"][:8] + "\n" + good["base64"][8:]},
                       "base64"),
        "non-ASCII": ({**good, "base64": "\u00e9" + good["base64"][1:]}, "base64"),
        "late line break": ({**big, "base64": head + "\n" + tail}, "base64"),
        "late stray character": ({**big, "base64": head + "*" + tail}, "base64"),
        "trailing line break": ({**whole_slice, "base64": whole_slice["base64"] + "\n"},
                                "base64"),
        "trailing line break after whole rows": (
            {**whole_rows, "base64": whole_rows["base64"] + "\n"}, "base64"),
        "one byte short": ({**good, "shape": [3, 1], "base64": binascii.b2a_base64(
            bytes(23), newline=False).decode("ascii")}, "bytes"),
        "non-zero trailing bits": (_set_trailing_bit(encode_array([1.5])), "base64"),
        "late non-zero trailing bits": (_set_trailing_bit(encode_array(np.arange(600_001.0))),
                                        "base64"),
        "not a string": ({**good, "base64": 5}, "base64"),
    }
