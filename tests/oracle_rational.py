"""Rational reference arithmetic, the independent check on the library's
integer paths; it lives with the tests because the library itself computes
circles and orders from integers alone.

One model: elements of Q(sqrt(-d)) as pairs of fractions, 2x2 matrices over
them, and each quaternion t + x i + y j + z ij of the algebra (-d, D) held
as its image under the splitting (Voight, *Quaternion Algebras*, ch. 2)

    rho: 1 -> I, i -> diag(w, -w), j -> [[0, D], [1, 0]],   w = sqrt(-d).

A quaternion product is then a matrix product, nrd the determinant, trd the
trace and the conjugate the adjugate; nothing here shares arithmetic with
the library's integer product `quatorder._quat_mul`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from bianchisurf.hermitian import CosetMatrix, HermitianCircle, SurfaceIndex
from bianchisurf.quatorder import QuaternionAlgebra, QuaternionOrder, _form_values


@dataclass(frozen=True)
class QuadExt:
    """An element re + im*sqrt(-d) of Q(sqrt(-d)); d carried alongside."""

    d: int
    re: Fraction
    im: Fraction

    @staticmethod
    def of(d: int, re, im=0) -> "QuadExt":
        return QuadExt(d, Fraction(re), Fraction(im))

    def __add__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(self.d, self.re + other.re, self.im + other.im)

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        return QuadExt(self.d, self.re - other.re, self.im - other.im)

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        # (a + b w)(c + e w) with w^2 = -d
        a, b, c, e = self.re, self.im, other.re, other.im
        return QuadExt(self.d, a * c - self.d * b * e, a * e + b * c)

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.d, self.re, -self.im)

    def scale(self, k) -> "QuadExt":
        k = Fraction(k)
        return QuadExt(self.d, self.re * k, self.im * k)

    def is_field_integer(self) -> bool:
        # O_d = Z[(1 + sqrt(-d))/2] for d = 3 mod 4: half-integers with
        # matching parity
        a2 = self.re * 2
        b2 = self.im * 2
        if a2.denominator != 1 or b2.denominator != 1:
            return False
        return (a2.numerator - b2.numerator) % 2 == 0


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over Q(sqrt(-d))."""

    e00: QuadExt
    e01: QuadExt
    e10: QuadExt
    e11: QuadExt

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e00 * other.e00 + self.e01 * other.e10,
            self.e00 * other.e01 + self.e01 * other.e11,
            self.e10 * other.e00 + self.e11 * other.e10,
            self.e10 * other.e01 + self.e11 * other.e11,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e00 + other.e00,
            self.e01 + other.e01,
            self.e10 + other.e10,
            self.e11 + other.e11,
        )

    def scale(self, k) -> "Mat2":
        return Mat2(
            self.e00.scale(k), self.e01.scale(k), self.e10.scale(k), self.e11.scale(k)
        )

    def conj_transpose(self) -> "Mat2":
        return Mat2(
            self.e00.conjugate(),
            self.e10.conjugate(),
            self.e01.conjugate(),
            self.e11.conjugate(),
        )

    def adjugate(self) -> "Mat2":
        """[[e11, -e01], [-e10, e00]]: the quaternion conjugate of a rho-image."""
        return Mat2(self.e11, self.e01.scale(-1), self.e10.scale(-1), self.e00)

    def det(self) -> QuadExt:
        return self.e00 * self.e11 - self.e01 * self.e10

    def entries(self) -> tuple[QuadExt, QuadExt, QuadExt, QuadExt]:
        return (self.e00, self.e01, self.e10, self.e11)

    @staticmethod
    def identity(d: int) -> "Mat2":
        one = QuadExt.of(d, 1)
        zero = QuadExt.of(d, 0)
        return Mat2(one, zero, zero, one)


def rational(z: QuadExt) -> Fraction:
    """z as a rational number; an error if z has a sqrt(-d) part."""
    if z.im:
        raise ValueError(f"{z} is not rational")
    return z.re


def circle_matrix(circle: HermitianCircle) -> Mat2:
    """The hermitian matrix [[a, b w], [-b w, c0]] with w = sqrt(-d)."""
    d = circle.d
    return Mat2(
        QuadExt.of(d, circle.a),
        QuadExt.of(d, 0, circle.b),
        QuadExt.of(d, 0, -circle.b),
        QuadExt.of(d, circle.c0),
    )


def coset_matrix(sig: CosetMatrix) -> Mat2:
    """The matrix [[w, r], [v r, -u w]] of `hermitian.sigma_r`."""
    d = sig.d
    return Mat2(
        QuadExt.of(d, 0, 1),
        QuadExt.of(d, sig.r),
        QuadExt.of(d, sig.v * sig.r),
        QuadExt.of(d, 0, -sig.u),
    )


def canonical_circle(d: int, m: int, c: int) -> HermitianCircle:
    """The representative circle d|z|^2 + 2Re(m sqrt(-d) z-bar) + dc = 0,
    for an index (m, c) that `SurfaceIndex` accepts."""
    SurfaceIndex(d, m, c, 1)
    return HermitianCircle(d, d, m, d * c)


def matrix_rep(alg: QuaternionAlgebra, t, x=0, y=0, z=0) -> Mat2:
    """rho(t + x i + y j + z ij) = [[X, D Y], [conj(Y), conj(X)]] with
    X = t + x w and Y = y + z w."""
    X = QuadExt.of(alg.d, t, x)
    Y = QuadExt.of(alg.d, y, z)
    return Mat2(X, Y.scale(alg.D), Y.conjugate(), X.conjugate())


def coords(m: Mat2) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(t, x, y, z) read back from a rho-image: X = e00 and conj(Y) = e10."""
    return m.e00.re, m.e00.im, m.e10.re, -m.e10.im


def trd(m: Mat2) -> Fraction:
    return rational(m.e00 + m.e11)


def nrd(m: Mat2) -> Fraction:
    return rational(m.det())


def basis(order: QuaternionOrder) -> tuple[Mat2, ...]:
    """The rho-images of the order's basis e_i = rows[i] / N."""
    return tuple(matrix_rep(order.algebra, *(Fraction(c, order.N) for c in row)) for row in order.rows)


def combination(order: QuaternionOrder, ks) -> Mat2:
    """rho(sum k_i e_i), summed over the basis images."""
    return reduce(Mat2.__add__, (e.scale(k) for k, e in zip(ks, basis(order))))


def rho_prime(order: QuaternionOrder, m: Mat2) -> Mat2:
    """T^-1 m T with T = [[a, b w], [0, 1]]: sends the rho-image of the order
    into matrices over O_d and its unit group into the stabilizer of the
    order's circle."""
    d, a, b = order.d, order.params.a, order.params.b
    T = Mat2(QuadExt.of(d, a), QuadExt.of(d, 0, b), QuadExt.of(d, 0), QuadExt.of(d, 1))
    return (T.adjugate() @ m @ T).scale(Fraction(1, a))


def norm_one_elements(order: QuaternionOrder, bound: int, limit: int) -> list[Mat2]:
    """rho-images of the order elements of reduced norm 1 with basis
    coordinates in [-bound, bound], excluding +-1, in deterministic scan
    order; the search reads the order's integer norm form."""
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    Q = _form_values(order.quadratic_forms[1], np.meshgrid(rng, rng, rng, rng, indexing="ij", sparse=True))
    # +-1 and 0-padded scalars are not useful witnesses
    hits = [idx - bound for idx in np.argwhere(Q == 1) if (idx[1:] != bound).any()]
    return [combination(order, ks.tolist()) for ks in hits[:limit]]
