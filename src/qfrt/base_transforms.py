"""The dyadic-order base operators that get fractionalized.

Four operators: the Fourier transform (order 4) and three involutions: the
discrete Hartley transform and the Type-I and Type-IV cosine-sine blocks.
Each comes as a dense kernel: ``complex128`` for the Fourier transform,
``float64`` for the three real involutions, so that every product and check
on those runs as real arithmetic. The Fourier transform also carries its
square, the permutation j -> -j mod N. Only the orthonormal kernel scalings
appear here since those are the ones squaring to the identity, which the
fractionalization machinery requires.

``cst1`` is the direct sum of an (N+1)-point DCT-I and an (N-1)-point DST-I
on n+1 qubits (N = 2**n); it is commonly named a Type-I cosine transform
even though sine components share the block. ``cst4`` is DCT-IV (+) DST-IV,
whose top qubit acts as a cosine/sine selector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NotDyadicOrderError

#: Tolerance for the order check U**(2**n) = I.
ORDER_TOL = 1e-8

#: Tolerance for eigenvalue residues against roots of unity.
EIGEN_RESIDUE_TOL = 1e-6

TRANSFORM_IDS = ("fourier", "hartley", "cst1", "cst4")


def dft_matrix(n_points: int) -> np.ndarray:
    """DFT with kernel w = exp(-2 pi i / N): entry (j, k) = w**((j k) mod N) / sqrt(N).

    The exponent j k is reduced exactly, in integers, and indexes a table of
    the N roots, so no angle loses precision as j k grows and F**2 is the
    permutation j -> -j mod N to within a few ulps.
    """
    j = np.arange(n_points)
    roots = np.exp(-2j * np.pi * j / n_points) / np.sqrt(n_points)
    exponents = np.outer(j, j)
    exponents %= n_points
    return roots[exponents]


def hartley_matrix(n_points: int) -> np.ndarray:
    """cas kernel: entry (j, k) = (cos + sin)(2 pi j k / N) / sqrt(N)."""
    j = np.arange(n_points)
    ang = 2.0 * np.pi * np.outer(j, j) / n_points
    return (np.cos(ang) + np.sin(ang)) / np.sqrt(n_points)


def dct1_matrix(n_points: int) -> np.ndarray:
    """Orthonormal DCT-I on N+1 points: entry (j, k) =
    sqrt(2/N) beta_j beta_k cos(pi j k / N), beta = 1/sqrt(2) at the ends."""
    big_n = n_points - 1
    j = np.arange(n_points)
    beta = np.where((j == 0) | (j == big_n), 1.0 / np.sqrt(2.0), 1.0)
    return np.sqrt(2.0 / big_n) * np.outer(beta, beta) * np.cos(
        np.pi * np.outer(j, j) / big_n
    )


def dst1_matrix(n_points: int) -> np.ndarray:
    """Orthonormal DST-I on N-1 points: entry (j, k) =
    sqrt(2/N) sin(pi (j+1)(k+1) / N)."""
    big_n = n_points + 1
    j = np.arange(1, n_points + 1)
    return np.sqrt(2.0 / big_n) * np.sin(np.pi * np.outer(j, j) / big_n)


def dct4_matrix(n_points: int) -> np.ndarray:
    """Orthonormal DCT-IV: entry (j, k) = sqrt(2/N) cos(pi (j+1/2)(k+1/2) / N)."""
    j = np.arange(n_points) + 0.5
    return np.sqrt(2.0 / n_points) * np.cos(np.pi * np.outer(j, j) / n_points)


def dst4_matrix(n_points: int) -> np.ndarray:
    """Orthonormal DST-IV: entry (j, k) = sqrt(2/N) sin(pi (j+1/2)(k+1/2) / N)."""
    j = np.arange(n_points) + 0.5
    return np.sqrt(2.0 / n_points) * np.sin(np.pi * np.outer(j, j) / n_points)


def _direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]),
                   dtype=np.result_type(a, b))
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


@dataclass(frozen=True, eq=False)
class BaseTransform:
    """A named dyadic-order unitary, as its dense kernel: dense**(2**order_exponent) = I.

    ``square_perm``, for an order-4 kernel only, is the row permutation p
    with dense**2 = I[p]; it must be an involution (p[p] = identity), as
    j -> -j mod N is for the DFT. With it, :meth:`powers` needs no matrix
    product.
    """

    id: str
    data_qubits: int
    order_exponent: int
    dense: np.ndarray
    square_perm: np.ndarray | None = None

    def __post_init__(self):
        if self.square_perm is None:
            return
        perm, dim = np.asarray(self.square_perm), self.dense.shape[0]
        # An involutive p is what makes the callers' order check p U U = I
        # imply U**2 = I[p] and U**4 = I.
        if not (self.order == 4 and perm.shape == (dim,)
                and np.issubdtype(perm.dtype, np.integer)
                and np.all((perm >= 0) & (perm < dim))
                and np.array_equal(perm[perm], np.arange(dim))):
            raise ValueError(
                f"{self.id!r}: square_perm must be an involutive permutation of "
                f"range({dim}) on an order-4 transform"
            )

    @property
    def order(self) -> int:
        return 1 << self.order_exponent

    def powers(self) -> tuple[np.ndarray, ...]:
        """The power table (U**0, ..., U**(order-1)), rebuilt on each call and
        unchecked: ``fractional_oracle`` and ``build_qfru_circuit`` each check
        the order in their own way. With ``square_perm`` p it is
        (I, U, I[p], U[p]), by row permutation; otherwise by repeated products.
        Every entry, I included, has the kernel's dtype."""
        eye = linalg.identity(self.dense.shape[0], self.dense.dtype)
        if self.square_perm is not None:
            perm = self.square_perm
            return eye, self.dense, eye[perm], self.dense[perm]
        table = [eye, self.dense][: self.order]
        while len(table) < self.order:
            table.append(table[-1] @ self.dense)
        return tuple(table)


def fourier_transform(q: int) -> BaseTransform:
    """The 2**q-point Fourier transform, order 4; F**2 is the parity
    permutation j -> -j mod 2**q."""
    if q < 1:
        raise ValueError("need at least one data qubit")
    linalg.check_qubit_budget(q)
    parity = -np.arange(1 << q) % (1 << q)
    return BaseTransform("fourier", q, 2, dft_matrix(1 << q), parity)


def hartley_transform(q: int) -> BaseTransform:
    """The 2**q-point Hartley transform (cas kernel), an involution."""
    if q < 1:
        raise ValueError("need at least one data qubit")
    linalg.check_qubit_budget(q)
    return BaseTransform("hartley", q, 1, hartley_matrix(1 << q))


def cst1_transform(n: int) -> BaseTransform:
    """Type-I cosine-sine block DCT-I(N+1) (+) DST-I(N-1) on n+1 qubits."""
    if n < 1:
        raise ValueError("need n >= 1")
    linalg.check_qubit_budget(n + 1)
    big_n = 1 << n
    dense = _direct_sum(dct1_matrix(big_n + 1), dst1_matrix(big_n - 1))
    return BaseTransform("cst1", n + 1, 1, dense)


def cst4_transform(n: int) -> BaseTransform:
    """Type-IV cosine-sine block DCT-IV(N) (+) DST-IV(N) on n+1 qubits; the
    top qubit selects the cosine (|0>) or sine (|1>) block."""
    if n < 1:
        raise ValueError("need n >= 1")
    linalg.check_qubit_budget(n + 1)
    big_n = 1 << n
    dense = _direct_sum(dct4_matrix(big_n), dst4_matrix(big_n))
    return BaseTransform("cst4", n + 1, 1, dense)


def make_transform(transform_id: str, size: int) -> BaseTransform:
    """Build a transform by CLI identifier; ``size`` is the data-qubit count
    for fourier/hartley and the block exponent n for cst1/cst4."""
    builders = {
        "fourier": fourier_transform,
        "hartley": hartley_transform,
        "cst1": cst1_transform,
        "cst4": cst4_transform,
    }
    if transform_id not in builders:
        raise KeyError(
            f"unknown transform {transform_id!r}; valid ids: {', '.join(TRANSFORM_IDS)}"
        )
    return builders[transform_id](size)


def _order_and_residue(t: BaseTransform, max_exponent: int = 6) -> tuple[int, float, float]:
    """:func:`verify_order`'s checks; returns its exponent e, the largest
    distance from an eigenvalue of the kernel to a 2**e-th root of unity, and
    |U**order - I|_max at the declared order, read off the same squarings
    (squaring past e only when the declared exponent is larger)."""
    if not 0 <= max_exponent <= 6:
        raise ValueError("max_exponent must be between 0 and 6")
    dim = t.dense.shape[0]
    eye = linalg.identity(dim, t.dense.dtype)
    power = t.dense
    devs = [linalg.max_norm_diff(power, eye)]  # devs[e] = |U**(2**e) - I|_max
    while devs[-1] > ORDER_TOL and len(devs) <= max_exponent:
        power = power @ power
        devs.append(linalg.max_norm_diff(power, eye))
    if devs[-1] > ORDER_TOL:
        raise NotDyadicOrderError(
            f"{t.id}: no exponent e <= {max_exponent} with U**(2**e) = I"
        )
    found = len(devs) - 1
    while len(devs) <= t.order_exponent:
        power = power @ power
        devs.append(linalg.max_norm_diff(power, eye))
    eigs = np.linalg.eigvals(t.dense)
    roots = np.exp(2j * np.pi * np.arange(1 << found) / (1 << found))
    residue = float(np.max(np.min(np.abs(eigs[:, None] - roots[None, :]), axis=1)))
    if residue > EIGEN_RESIDUE_TOL:
        raise NotDyadicOrderError(
            f"{t.id}: eigenvalue residue {residue:.3e} off the 2**{found}-th roots"
        )
    return found, residue, devs[t.order_exponent]


def verify_order(t: BaseTransform, max_exponent: int = 6) -> int:
    """Smallest e with dense**(2**e) = I within 1e-8.

    Also checks that the spectrum sits on 2**e-th roots of unity within
    1e-6; the matrix-power identity is the normative test, the eigenvalue
    residue a consistency diagnostic.
    """
    return _order_and_residue(t, max_exponent)[0]
