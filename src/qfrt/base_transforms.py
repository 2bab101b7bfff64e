"""The dyadic-order base operators that get fractionalized.

Four operators: the Fourier transform (order 4) and three involutions: the
discrete Hartley transform and the Type-I and Type-IV cosine-sine blocks.
Their builders return a :class:`_TableTransform`, the subclass of the
hand-built kernel's class :class:`BaseTransform` that holds a roots table
in place of a kernel. Its dense kernel is ``complex128`` for the Fourier
transform, ``float64`` for the three real involutions, so that every
product and check on those runs as real arithmetic. The Fourier transform
also carries its square, the permutation j -> -j mod N. Only the
orthonormal kernel scalings appear here since those are the ones squaring
to the identity, which the fractionalization machinery requires.

``cst1`` is the direct sum of an (N+1)-point DCT-I and an (N-1)-point DST-I
on n+1 qubits (N = 2**n); it is commonly named a Type-I cosine transform
even though sine components share the block. ``cst4`` is DCT-IV (+) DST-IV,
whose top qubit acts as a cosine/sine selector.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import InitVar, dataclass, field
from functools import cached_property, partial
from typing import ClassVar

import numpy as np

from . import linalg
from .errors import DimensionError, NotDyadicOrderError, QfrtError
from .linalg import GATE_TOL

#: Tolerance for the order check U**(2**n) = I.
ORDER_TOL = 1e-8

#: Tolerance for eigenvalue residues against roots of unity.
EIGEN_RESIDUE_TOL = 1e-6


def _exponents(j: np.ndarray, modulus: int) -> np.ndarray:
    """The exponent table (j_a j_b) mod modulus, reduced exactly in integers
    by a mask: every builder's modulus is a power of two."""
    exponents = np.outer(j, j)
    exponents &= modulus - 1
    return exponents


# Each kernel indexes a table of roots by an exactly reduced integer exponent.
# A ``_*_table(..., dtype)`` function evaluates that table's closed form in
# ``dtype``: float64 gives the stored entries, np.longdouble the reference the
# certificate (:func:`_entry_dev`) measures them against.

#: pi to more digits than np.longdouble holds; float64 reads it as np.pi.
_PI = "3.14159265358979323846264338327950288"


def _dft_table(n_points: int, dtype=np.float64) -> np.ndarray:
    j = np.arange(n_points)
    return np.exp(-2j * dtype(_PI) * j / n_points) / np.sqrt(dtype(n_points))


def _hartley_table(n_points: int, dtype=np.float64) -> np.ndarray:
    ang = 2 * dtype(_PI) * np.arange(n_points) / n_points
    return (np.cos(ang) + np.sin(ang)) / np.sqrt(dtype(n_points))


def _type1_table(trig, big_n: int, dtype=np.float64) -> np.ndarray:
    """sqrt(2/N) trig(pi m / N) for m < 2N, the DCT-I or DST-I roots."""
    m = np.arange(2 * big_n)
    return np.sqrt(2 * dtype(1) / big_n) * trig(dtype(_PI) * m / big_n)


def _type4_table(trig, big_n: int, dtype=np.float64) -> np.ndarray:
    """sqrt(2/N) trig(pi m / 4N) for the odd m < 8N, the only exponents
    (2j+1)(2k+1) mod 8N takes; exponent m sits at index m >> 1."""
    m = 2 * np.arange(4 * big_n) + 1
    return np.sqrt(2 * dtype(1) / big_n) * trig(dtype(_PI) * m / (4 * big_n))


# Each builder's kernel is one gather, table[layout], of its ``_values`` table
# through an index layout of the kernel's shape; the oracle gathers a weighted
# table through the same layout. The exponent arithmetic lives only here.


def _mod_layout(n_points: int) -> np.ndarray:
    """(j k) mod N: entry (j, k) of the DFT and the Hartley kernel indexes
    root (j k) mod N of its table."""
    return _exponents(np.arange(n_points), n_points)


def _type4_layout(n_points: int) -> np.ndarray:
    """((2j+1)(2k+1) mod 8N) >> 1, the index of exponent (2j+1)(2k+1) mod 8N
    into :func:`_type4_table`."""
    return _exponents(2 * np.arange(n_points) + 1, 8 * n_points) >> 1


def _block_layout(a: np.ndarray, b: np.ndarray, zero: int) -> np.ndarray:
    """The layout of a direct sum: layout a, then b, down the diagonal, and
    the table's zero slot ``zero`` in the two off-diagonal blocks."""
    out = np.full((len(a) + len(b),) * 2, zero)
    out[: len(a), : len(a)] = a
    out[len(a):, len(a):] = b
    return out


def _cst1_layout(big_n: int) -> np.ndarray:
    """The layout of DCT-I(N+1) (+) DST-I(N-1) into :func:`_cst1_values`:
    exponent (j k) mod 2N into the cosines, except that the DCT-I edges (rows
    and columns 0 and N, exponent 0 or N) index ``edges`` and its corners
    (exponent 0) the corner entry; (j+1)(k+1) mod 2N into the sines."""
    cos, ends = _exponents(np.arange(big_n + 1), 2 * big_n), [0, big_n]
    cos[ends] = 4 * big_n + cos[ends] // big_n
    cos[:, ends] = 4 * big_n + cos[:, ends] // big_n
    cos[np.ix_(ends, ends)] = 4 * big_n + 2
    sin = _exponents(np.arange(1, big_n), 2 * big_n) + 2 * big_n
    return _block_layout(cos, sin, 4 * big_n + 3)


def _cst4_layout(big_n: int) -> np.ndarray:
    """The layout of DCT-IV(N) (+) DST-IV(N) into :func:`_cst4_values`."""
    layout = _type4_layout(big_n)
    return _block_layout(layout, layout + 4 * big_n, 8 * big_n)


def _cst1_values(big_n: int, dtype=np.float64) -> np.ndarray:
    """Every distinct entry of DCT-I(N+1) (+) DST-I(N-1): both tables, the
    DCT-I boundary entries, divided by sqrt(2) once (the edges, whose
    exponents are 0 and N) or twice (the corners, exponent 0), and a zero."""
    cos, sqrt2 = _type1_table(np.cos, big_n, dtype), np.sqrt(2 * dtype(1))
    edges = cos[[0, big_n]] / sqrt2
    return np.concatenate([cos, _type1_table(np.sin, big_n, dtype), edges, edges[:1] / sqrt2,
                           np.zeros(1, dtype)])


def _cst4_values(big_n: int, dtype=np.float64) -> np.ndarray:
    """The DCT-IV and the DST-IV table, and a zero."""
    return np.concatenate([_type4_table(trig, big_n, dtype) for trig in (np.cos, np.sin)]
                          + [np.zeros(1, dtype)])


#: Margin on the certificate, in longdouble ulps of the largest entry: it
#: bounds the longdouble reference's own rounding (pi, the angle, the
#: trigonometric function and the scaling), a few ulps each.
_REFERENCE_ULPS = 64


def _entry_dev(stored: np.ndarray, values: Callable) -> float:
    """delta >= max|stored - exact| over a built-in kernel's distinct entries.

    ``stored`` is ``values(np.float64)``, the builder's formulas in float64;
    ``values(np.longdouble)`` (64-bit mantissa) is exact to within a few
    longdouble ulps, which the margin covers. O(N): no kernel is built.
    """
    exact = values(np.longdouble)
    dev = np.max(np.abs(stored - exact))
    margin = _REFERENCE_ULPS * np.finfo(np.longdouble).eps * np.max(np.abs(exact))
    return float(dev + margin)


# Matrix-free kernels: U x along axis 0 of a complex (N, cols) block, by
# numpy.fft only; BaseTransform.apply makes every other power from them. The
# cosine-sine kernels act on the float64 view of x, its real and imaginary
# parts as separate columns.


def _hartley_apply(x: np.ndarray) -> np.ndarray:
    """H by one complex FFT (Bracewell, Proc. IEEE 1984): cas = Re((1 + i)
    e^(-i theta)), so for y = F x, H x = ((1 + i) y + (1 - i) y[-j mod N]) / 2,
    where y[-j mod N] is y[0] followed by y reversed."""
    y = np.fft.fft(x, axis=0, norm="ortho")
    mirror = (0.5 - 0.5j) * np.concatenate([y[:1], y[:0:-1]])
    y *= 0.5 + 0.5j
    y += mirror
    return y


def _cst1_apply(x: np.ndarray) -> np.ndarray:
    """DCT-I(N+1) (+) DST-I(N-1) by one orthonormal real 2N-point FFT of the
    even extension of the cosine block plus the odd extension of the sine
    block: the first's transform is real and the second's imaginary, so the
    real part gives DCT-I and the imaginary part -DST-I, each written in place."""
    big_n = x.shape[0] // 2
    y = np.ascontiguousarray(x).view(np.float64)
    ext = np.empty((2 * big_n, y.shape[1]))
    ext[: big_n + 1] = y[: big_n + 1]
    ext[[0, big_n]] *= np.sqrt(2.0)  # 2 beta at the ends
    ext[big_n + 1:] = ext[big_n - 1:0:-1]
    ext[1:big_n] += y[big_n + 1:]
    ext[big_n + 1:] -= y[:big_n:-1]
    spec = np.fft.rfft(ext, axis=0, norm="ortho")
    out = np.empty_like(y)
    out[: big_n + 1] = spec.real
    out[[0, big_n]] *= np.sqrt(0.5)
    np.negative(spec.imag[1:big_n], out=out[big_n + 1:])
    return out.view(complex)


def _cst4_apply(pre: np.ndarray, post: np.ndarray, x: np.ndarray) -> np.ndarray:
    """DCT-IV(N) (+) DST-IV(N) by one N/2-point complex FFT per block
    (Makhoul, IEEE TASSP 1980). For a real y, with v_m = y_2m + i y_(N-1-2m),
    V = post FFT_(N/2)(pre v) holds DCT-IV(y)_2p in Re V_p and
    DCT-IV(y)_(N-1-2p) in -Im V_p; and DST-IV(y)_k = (-1)**k DCT-IV(y
    reversed)_k, whose v swaps the two parts."""
    big_n = 2 * len(pre)
    y = np.ascontiguousarray(x).view(np.float64).reshape(2, big_n, -1)
    v = np.empty((2, big_n // 2, y.shape[2]), complex)
    v.real[0], v.imag[0] = y[0, ::2], y[0, ::-2]
    v.real[1], v.imag[1] = y[1, ::-2], y[1, ::2]
    v *= pre
    v = np.fft.fft(v, axis=1)
    v *= post
    out = np.empty(y.shape)
    out[:, ::2] = v.real
    out[:, ::-2] = v.imag
    out[0, ::-2] *= -1
    return out.reshape(2 * big_n, -1).view(complex)


def _adjoint_dev(a: np.ndarray, u: np.ndarray) -> float:
    """max|a - u^dagger|, in row blocks so that the transposed reads of u
    stay in cache."""
    return float(np.max([np.max(np.abs(a[i:i + 32] - u[:, i:i + 32].conj().T))
                         for i in range(0, len(u), 32)]))


@dataclass(frozen=True, eq=False)
class BaseTransform:
    """A named dyadic-order unitary, as its dense kernel: dense**(2**order_exponent) = I.

    ``data_qubits`` and ``order_exponent`` are integers >= 1. A hand-built
    ``kernel``, the fourth argument, must be a finite (2**data_qubits)-square
    matrix; ``dense`` holds a sealed copy (:func:`linalg.frozen`) from then
    on, so what :meth:`check` proves holds for good. Its powers are its
    repeated products, and its proof reads ``dense``. The four builders of
    this module return the subclass :class:`_TableTransform` instead. Other
    modules reach U**k only by :meth:`power`, :meth:`apply`,
    :meth:`apply_sum` and :meth:`power_sum`, defined here alone: each checks
    its arguments once, then calls its kernel, :meth:`_power`, :meth:`_apply`
    (k in 1..order-1), :meth:`_apply_sum` or :meth:`_power_sum`, the only
    methods a subclass overrides.
    """

    id: str
    data_qubits: int
    order_exponent: int
    kernel: InitVar[np.ndarray | None] = None
    table_dev = None  # not a field: a hand-built kernel has no certificate

    def __post_init__(self, kernel):
        linalg.check_instance("id", self.id, str)
        for name in ("data_qubits", "order_exponent"):
            object.__setattr__(self, name, linalg.check_int(f"{self.id!r}: {name}",
                                                            getattr(self, name), 1))
        linalg.check_qubit_budget(
            f"{self.id!r}: {self.order_exponent} ancilla + {self.data_qubits} data qubits",
            self.order_exponent + self.data_qubits)
        dense = np.asarray(kernel)
        dim = 1 << self.data_qubits
        if dense.shape != (dim, dim):
            raise DimensionError(
                f"{self.id!r}: kernel of shape {dense.shape} on {self.data_qubits} "
                f"data qubits, expected ({dim}, {dim})"
            )
        what = f"{self.id!r}: kernel entries must be finite numbers"
        if not np.all(np.isfinite(linalg.check_numbers(what, dense))):
            raise QfrtError(what)
        object.__setattr__(self, "dense", linalg.frozen(dense))

    @property
    def order(self) -> int:
        return 1 << self.order_exponent

    @cached_property
    def unitarity_dev(self) -> float:
        """max|U^dagger U - I|, or an upper bound on it, once per object.

        With a certificate the kernel is E + D, E exact and unitary and
        |D|_max <= delta = :attr:`table_dev`, and U^dagger U - I = E^dagger D
        + D^dagger E + D^dagger D gives the bound 2 sqrt(N) delta + N delta**2
        by Cauchy-Schwarz on the columns; no kernel is built. Otherwise it
        is measured by one dense product."""
        delta = self.table_dev
        if delta is None:
            return linalg.unitarity_dev(self.dense)
        dim = 1 << self.data_qubits
        return 2 * math.sqrt(dim) * delta + dim * delta**2

    @cached_property
    def _fault(self) -> str | None:
        """Why :meth:`check` fails, or None."""
        if not self.unitarity_dev <= GATE_TOL:
            return f"is not unitary within {GATE_TOL}"
        delta, dim = self.table_dev, 1 << self.data_qubits
        if delta is not None:
            dev, bound = self.order * dim * delta * (1 + dim * delta) ** (self.order - 1), ORDER_TOL
        else:
            dev = _adjoint_dev(self.power(self.order - 1), self.dense)
            bound = (ORDER_TOL - 2 * GATE_TOL) / math.sqrt(dim)
        if not dev <= bound:  # a NaN fails too
            return f"does not satisfy U**{self.order} = I within {ORDER_TOL}"
        g = self.unitarity_dev  # the power bound, see check()
        if self.order > 2 and (1 + dim * g) ** (self.order - 1) - 1 > GATE_TOL:
            for k, power in enumerate(self._products, 2):
                if not linalg.unitarity_dev(power) <= GATE_TOL:
                    return f"has U**{k} not unitary within {GATE_TOL}"
        return None

    def check(self) -> None:
        """Raise :class:`NotDyadicOrderError` naming the transform unless U is
        unitary, g = :attr:`unitarity_dev` <= GATE_TOL = G, U**order = I
        within ORDER_TOL, and every :meth:`power` is unitary within G, which
        is all a ``power`` payload needs; the verdict is reached once per object.

        With a certificate delta = :attr:`table_dev`, U = E + D with E exact,
        unitary and E**order = I, and |D|_max <= delta, so ||D||_2 <= N delta,
        ||U||_2 <= 1 + N delta, and U**order - I = sum_i U**i D E**(order-1-i)
        gives |U**order - I|_max <= order N delta (1 + N delta)**(order - 1).

        Otherwise, in O(N**2), with last = :meth:`power` (order - 1) and D =
        last - U^dagger: last U - I = D U + (U^dagger U - I), the columns of
        U have norm <= sqrt(1 + g) <= 1 + G/2, and Cauchy-Schwarz on the rows
        of D gives |last U - I|_max <= sqrt(N) |D|_max (1 + G/2) + G, so
        |D|_max <= (ORDER_TOL - 2G) / sqrt(N) keeps it <= ORDER_TOL (< 2).
        For a builder with Fourier's p, last = U[p]: U**2 = I[p], and U**4
        = I as p is an involution.

        Powers: D_k = U**k^dagger U**k - I = D_(k-1) + U**(k-1)^dagger E U**(k-1),
        E = U^dagger U - I, ||E||_2 <= N g, gives |D_k|_max <= (1 + N g)**k - 1.
        A builder's powers permute the rows of U or I; a hand-built kernel's
        U**2 .. U**(order-1) are measured, only where that bound exceeds G.
        """
        if self._fault is not None:
            raise NotDyadicOrderError(f"base {self.id!r} {self._fault}")

    def power(self, k: int) -> np.ndarray:
        """U**k for 0 <= k < order, sealed, in the kernel's dtype, by :meth:`_power`."""
        return self._power(linalg.check_int(f"power of {self.id!r}", k, 0, self.order - 1))

    def apply(self, x: np.ndarray, k: int) -> np.ndarray:
        """U**k x along axis 0 of an (N, cols) block x, a new complex array: any
        integer k, reduced mod order here, k = 0 a copy of x, else :meth:`_apply`."""
        k = linalg.check_int("k", k) % self.order
        x = self._block("apply", x)
        return self._apply(x, k) if k else x.copy()

    def apply_sum(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_k weights[k] U**k x over k < order, along axis 0 of an (N,
        cols) block x, a new complex array, by :meth:`_apply_sum`."""
        return self._apply_sum(self._weights("apply_sum", weights), self._block("apply_sum", x))

    def power_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] U**k over k < order, a new array, by :meth:`_power_sum`."""
        return self._power_sum(self._weights("power_sum", weights))

    def _weights(self, caller: str, weights) -> np.ndarray:
        """weights as an array of exactly ``order`` numbers (bool, integer,
        float or complex), else a :class:`QfrtError` naming the transform and
        their dtype, or a :class:`DimensionError` naming it and their shape."""
        weights = linalg.check_numbers(f"{self.id!r}: {caller} needs numeric weights", weights)
        if weights.shape != (self.order,):
            raise DimensionError(f"{self.id!r}: {caller} needs {self.order} weights, "
                                 f"got shape {weights.shape}")
        return weights

    def _block(self, caller: str, x) -> np.ndarray:
        """x, of numbers, as a complex (N, cols) block, else a :class:`QfrtError`
        naming the transform and x's dtype, or a :class:`DimensionError`
        naming it and x's shape."""
        x = linalg.check_numbers(f"{self.id!r}: {caller} needs a numeric block x", x)
        x = x.astype(complex, copy=False)
        if x.ndim != 2 or len(x) != 1 << self.data_qubits:
            raise DimensionError(f"{self.id!r}: {caller} needs a ({1 << self.data_qubits}, "
                                 f"cols) block, got shape {x.shape}")
        return x

    def _power(self, k: int) -> np.ndarray:
        """U**0 = I, U**1 = ``dense``, and U**k, k >= 2, from :attr:`_products`."""
        if k > 1:
            return self._products[k - 2]
        return self.dense if k else linalg.sealed(np.eye(len(self.dense), dtype=self.dense.dtype))

    def _apply(self, x: np.ndarray, k: int) -> np.ndarray:
        return linalg.apply(self._power(k), x)

    def _apply_sum(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        return linalg.apply(self._power_sum(weights), x)

    def _power_sum(self, weights: np.ndarray) -> np.ndarray:
        """w_1 U, w_0 on the diagonal, then w_k U**k, k = order - 1..2."""
        out = weights[1] * self.dense
        out.flat[:: len(out) + 1] += weights[0]  # I
        for k in range(self.order - 1, 1, -1):
            out += weights[k] * self._power(k)
        return out

    @cached_property
    def _products(self) -> tuple[np.ndarray, ...]:
        """U**2, ..., U**(order-1), each the previous one times U, sealed."""
        table = [self.dense]
        for _ in range(2, self.order):
            table.append(linalg.sealed(table[-1] @ self.dense))
        return tuple(table[1:])


@dataclass(frozen=True, eq=False)
class _TableTransform(BaseTransform):
    """A builder's transform: its roots table and an index layout into it,
    in place of a kernel. Its ``dense``, the table gathered through the
    layout, is a cached property, sealed: making the transform, building
    its circuits, simulating them and the oracle never build it;
    ``circuit_unitary``, export and ``dump`` do. Its :attr:`table_dev`
    certifies the stored entries against their closed form in O(N), so
    :meth:`check` multiplies no matrix; without that certificate the proof
    reads ``dense``. It overrides only the kernels, by its ``numpy.fft`` U x
    and, for Fourier, the row permutation p = j -> -j mod N, dense**2 = I[p]:
    every power is U**(k mod 2) after p**(k div 2), so it has no products.
    """

    kernel: ClassVar[None] = None  # no argument: the table gives the kernel
    _products = ()  # its powers permute the rows of U or I: none to measure
    # The index layout into the table, the table's distinct entries in a
    # given dtype (float64: dense is values(np.float64)[layout()];
    # np.longdouble: the certificate's reference), the numpy.fft U x, and
    # Fourier's row permutation p, dense**2 = I[p].
    _layout: Callable[[], np.ndarray] = field(kw_only=True, repr=False)
    _values: Callable[[type], np.ndarray] = field(kw_only=True, repr=False)
    _fft: Callable[[np.ndarray], np.ndarray] = field(kw_only=True, repr=False)
    _perm: np.ndarray | None = field(default=None, kw_only=True, repr=False)

    def __post_init__(self):
        """Nothing to check: the builder checked the sizes and the qubit budget."""

    @cached_property
    def _table(self) -> np.ndarray:
        """The stored entries, ``_values(np.float64)``, made once and frozen."""
        return linalg.frozen(self._values(np.float64))

    @cached_property
    def dense(self) -> np.ndarray:
        """The table gathered through the layout, sealed."""
        return linalg.sealed(self._table[self._layout()])

    @cached_property
    def table_dev(self) -> float | None:
        """The certificate: delta >= max|stored - exact| over the table's
        distinct entries (:func:`_entry_dev`), in O(N). None where
        np.longdouble is no wider than float64, which leaves no exact
        reference to measure against."""
        if np.finfo(np.longdouble).eps > 1e-18:
            return None
        return _entry_dev(self._table, self._values)

    def _power(self, k: int) -> np.ndarray:
        """U**1 is ``dense`` itself, U**0 and U**2 are I and I[p], built with
        no kernel, and U**3 the row gather U[p]."""
        if k == 1:
            return self.dense
        if k == 3:
            return linalg.sealed(self.dense[self._perm])
        eye = np.eye(1 << self.data_qubits, dtype=self._table.dtype)
        return linalg.sealed(eye[self._perm] if k else eye)

    def _apply(self, x: np.ndarray, k: int) -> np.ndarray:
        """By no matrix: x gathered by p for k >= 2, then one ``numpy.fft`` pass for an odd k."""
        if k > 1:
            x = x[self._perm]  # U**2 x, a new array
        return self._fft(x) if k & 1 else x

    def _apply_sum(self, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
        """In one ``numpy.fft`` pass and no N x N array: w_0 x + w_1 U x for
        an involution, w_0 x + w_2 x[p] + U (w_1 x + w_3 x[p]) with Fourier's p."""
        if self._perm is None:
            out = self._fft(x)
            out *= weights[1]
        else:
            xp = x[self._perm]
            inner = weights[1] * x
            inner += weights[3] * xp
            out = self._fft(inner)
            del inner  # at most three arrays of x's size are alive at once
        out += weights[0] * x
        if self._perm is not None:
            xp *= weights[2]
            out += xp
        return out

    def _power_sum(self, weights: np.ndarray) -> np.ndarray:
        """By no kernel or power: U is an involution or the DFT, and every
        entry of its U**k is in its roots table T, so the sum is one gather of
        a weighted table through the layout, certified or not: w_1 T, plus
        for the DFT w_3 T[p], as F**3 = F[p] and (-j l) mod N = p((j l) mod
        N); then w_0 on the diagonal and, for the DFT, w_2 at [j, p_j] (F**2
        = I[p])."""
        p, table = self._perm, self._table
        weighted = weights[1] * table
        if p is not None:
            weighted += weights[3] * table[p]
        out = weighted[self._layout()]
        out.flat[:: len(out) + 1] += weights[0]  # I
        if p is not None:
            out[np.arange(len(out)), p] += weights[2]  # I[p]
        return out


def fourier_transform(q: int) -> BaseTransform:
    """The 2**q-point Fourier transform, order 4; F**2 is the parity
    permutation j -> -j mod 2**q."""
    q = linalg.check_int("q", q, 1)
    linalg.check_qubit_budget(f"fourier q={q}", q)
    n_points = 1 << q
    parity = -np.arange(n_points) % n_points
    return _TableTransform("fourier", q, 2, _layout=lambda: _mod_layout(n_points),
                           _values=partial(_dft_table, n_points),
                           _fft=partial(np.fft.fft, axis=0, norm="ortho"), _perm=parity)


def hartley_transform(q: int) -> BaseTransform:
    """The 2**q-point Hartley transform (cas kernel), an involution."""
    q = linalg.check_int("q", q, 1)
    linalg.check_qubit_budget(f"hartley q={q}", q)
    n_points = 1 << q
    return _TableTransform("hartley", q, 1, _layout=lambda: _mod_layout(n_points),
                           _values=partial(_hartley_table, n_points), _fft=_hartley_apply)


def cst1_transform(n: int) -> BaseTransform:
    """Type-I cosine-sine block DCT-I(N+1) (+) DST-I(N-1) on n+1 qubits."""
    n = linalg.check_int("n", n, 1)
    linalg.check_qubit_budget(f"cst1 n={n}", n + 1)
    big_n = 1 << n
    return _TableTransform("cst1", n + 1, 1, _layout=lambda: _cst1_layout(big_n),
                           _values=partial(_cst1_values, big_n), _fft=_cst1_apply)


def cst4_transform(n: int) -> BaseTransform:
    """Type-IV cosine-sine block DCT-IV(N) (+) DST-IV(N) on n+1 qubits; the
    top qubit selects the cosine (|0>) or sine (|1>) block."""
    n = linalg.check_int("n", n, 1)
    linalg.check_qubit_budget(f"cst4 n={n}", n + 1)
    big_n = 1 << n
    m = np.arange(big_n // 2)[:, None]
    pre = np.exp(-1j * np.pi * m / big_n)
    post = np.sqrt(2.0 / big_n) * np.exp(-1j * np.pi * (4 * m + 1) / (4 * big_n))
    return _TableTransform("cst4", n + 1, 1, _layout=lambda: _cst4_layout(big_n),
                           _values=partial(_cst4_values, big_n),
                           _fft=partial(_cst4_apply, pre, post))


#: Each builder by its CLI identifier.
_BUILDERS = {"fourier": fourier_transform, "hartley": hartley_transform,
             "cst1": cst1_transform, "cst4": cst4_transform}

TRANSFORM_IDS = tuple(_BUILDERS)


def make_transform(transform_id: str, size: int) -> BaseTransform:
    """Build a transform by CLI identifier; ``size`` is the data-qubit count
    for fourier/hartley and the block exponent n for cst1/cst4."""
    if transform_id not in _BUILDERS:
        raise KeyError(
            f"unknown transform {transform_id!r}; valid ids: {', '.join(TRANSFORM_IDS)}"
        )
    return _BUILDERS[transform_id](size)


#: Largest exponent e :func:`verify_order` squares up to, U**(2**e) = I.
MAX_ORDER_EXPONENT = 6


def _identity_dev(m: np.ndarray) -> float:
    """|m - I|_max, read off |m| with its diagonal replaced by |diag - 1|."""
    dev = np.abs(m)
    dev.flat[:: len(m) + 1] = np.abs(m.diagonal() - 1)
    return float(dev.max())


def order_and_residue(t: BaseTransform) -> tuple[int, float]:
    """:func:`verify_order`'s checks; returns its exponent e, found by
    squaring U until U**(2**e) = I, and the largest distance from an
    eigenvalue of the kernel to a 2**e-th root of unity."""
    power, found = linalg.check_instance("t", t, BaseTransform).dense, 0
    while not _identity_dev(power) <= ORDER_TOL:  # a NaN squares on, to the cap
        if found == MAX_ORDER_EXPONENT:
            raise NotDyadicOrderError(
                f"{t.id}: no exponent e <= {MAX_ORDER_EXPONENT} with U**(2**e) = I"
            )
        power, found = power @ power, found + 1
    eigs = np.linalg.eigvals(t.dense)
    roots = np.exp(2j * np.pi * np.arange(1 << found) / (1 << found))
    residue = float(np.max(np.min(np.abs(eigs[:, None] - roots[None, :]), axis=1)))
    if residue > EIGEN_RESIDUE_TOL:
        raise NotDyadicOrderError(
            f"{t.id}: eigenvalue residue {residue:.3e} off the 2**{found}-th roots"
        )
    return found, residue


def verify_order(t: BaseTransform) -> int:
    """Smallest e <= :data:`MAX_ORDER_EXPONENT` with dense**(2**e) = I within
    1e-8, its spectrum on the 2**e-th roots of unity within 1e-6: the power
    identity is the normative test, the eigenvalue residue a diagnostic."""
    return order_and_residue(t)[0]
