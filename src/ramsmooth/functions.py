"""Arithmetic functions as first-class objects.

An ArithmeticFunctionSpec bundles a function F with whatever is known
about it: direct values, its Eratosthenes transform F' (the Dirichlet
convolution F * mu), growth certificates |values(n)| <= C * n**eps for
tail bounds, or finite-support flags.  Catalog constructors cover the
built-in functions used throughout; file-backed and table-backed specs
cover user input.

The module also holds the machinery for functions "of range Q" (those
whose transform is supported in [1, Q], i.e. truncated divisor sums),
their expansion coefficients over Ramanujan sums, the smooth restriction
of a general F, and the smooth/sifted switch identity connecting the two
evaluation orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional

import numpy as np

from .arith import common_denominator, dirichlet_sieve, divisors, \
    euler_phi, exact_dtype, magnitude, mobius, mobius_sieve, \
    ramanujan_sum, ramanujan_sums, totient_sieve
from .smooth import SmoothContext, smooth_up_to

AUDIT_LIMIT = 2_000

# Largest denominator v of a certificate exponent u/v.  The Rankin tail
# bounds take roots of order lcm(v, 2**j), j <= 4, so their cost grows
# with v: `coeffs --V 7 --ell-max 12` on a two-entry eratosthenes table
# takes 0.4 s at eps = 1/127 and 6.6 s at eps = 1/997 (2-CPU Xeon VM).
MAX_EXPONENT_DENOMINATOR = 128


class CertificateError(ValueError):
    """A growth certificate is missing or failed its sampling audit."""


@dataclass(frozen=True)
class GrowthCertificate:
    """Asserts |values(n)| <= bound * n**exponent, exponent in [0, 1).

    Trusted input: it is audited by sampling, not proven.
    """

    bound: Fraction
    exponent: Fraction

    def __post_init__(self):
        object.__setattr__(self, "bound", Fraction(self.bound))
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        if self.bound <= 0:
            raise ValueError("certificate bound must be positive")
        if not 0 <= self.exponent < 1:
            raise ValueError("certificate exponent must lie in [0, 1)")
        if self.exponent.denominator > MAX_EXPONENT_DENOMINATOR:
            raise ValueError(
                f"certificate exponent {self.exponent} has a denominator "
                f"above {MAX_EXPONENT_DENOMINATOR}; round it up to one with "
                f"a denominator <= {MAX_EXPONENT_DENOMINATOR} (a larger "
                f"exponent is a weaker claim)")

    def admits(self, n: int, value: Fraction) -> bool:
        """Exact check of |value| <= bound * n**exponent."""
        u, v = self.exponent.numerator, self.exponent.denominator
        return (abs(Fraction(value)) / self.bound) ** v <= Fraction(n) ** u

    def first_violation(self, nums: np.ndarray, dens,
                        lo: int) -> Optional[int]:
        """The least n with |nums[i] / d_i| > bound * n**exponent,
        i = n - lo, or None; the window is [lo, lo + len(nums)), and dens
        is one d for every index or one d_i per index.

        With bound = cn/cd and exponent = u/v, put r = |x| cd and s = d cn
        for the value x/d at n: the claim reads r**v <= n**u s**v, on
        Python ints.  As n**exponent >= 1, r <= s admits n without the
        powers; that screen runs in numpy when the largest r and s of the
        window fit int64, and only the indices it does not admit get the
        exact test (every index, when they do not fit).
        """
        u, v = self.exponent.numerator, self.exponent.denominator
        cn, cd = self.bound.numerator, self.bound.denominator
        each = not isinstance(dens, int)
        if each:
            dens = np.asarray(dens)
        top = max(max(magnitude(nums), 1) * cd,
                  (max(magnitude(dens), 1) if each else dens) * cn)
        if exact_dtype(top) is np.int64:
            r = np.abs(nums.astype(np.int64)) * cd
            s = dens.astype(np.int64) * cn if each else dens * cn
            at = np.flatnonzero(r > s).tolist()
        else:
            at = range(len(nums))
        for i in at:
            d = int(dens[i]) if each else dens
            r, s = abs(int(nums[i])) * cd, d * cn
            if r > s and r ** v > (lo + i) ** u * s ** v:
                return lo + i
        return None

    def __str__(self):
        return f"bound {self.bound} * n^{self.exponent}"


@dataclass(frozen=True)
class FiniteSupport:
    """Values vanish beyond the stated bound."""

    bound: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("support bound must be >= 1")

    def admits(self, n: int, value: Fraction) -> bool:
        return n <= self.bound or value == 0

    def first_violation(self, nums: np.ndarray, dens,
                        lo: int) -> Optional[int]:
        """The least n > bound with nums[n - lo] != 0, or None; the window
        is [lo, lo + len(nums)), and dens is not read."""
        skip = max(self.bound + 1 - lo, 0)
        hit = np.flatnonzero(nums[skip:])
        return lo + skip + int(hit[0]) if len(hit) else None

    def __str__(self):
        return f"support <= {self.bound}"


Certificate = GrowthCertificate | FiniteSupport

# One side of a spec at some indices as integers: (nums, dens) with
# nums[i] / dens[i] its value at the i-th index; dens is one int for every
# index, or an integer array with one per index.  An array form, called as
# array(X, lo), gives the window lo..X, and index 0, when lo = 0, reads 0.
ExactArray = tuple[np.ndarray, "int | np.ndarray"]


def _over_one_denominator(array: ExactArray) -> tuple[np.ndarray, int]:
    """(nums, den) with one den, the lcm of an array's denominators."""
    nums, dens = array
    if isinstance(dens, int):
        return nums, dens
    den = lcm(*dens.tolist())
    scaled = [x * (den // d) for x, d in zip(nums.tolist(), dens.tolist())]
    return (np.array(scaled,
                     dtype=exact_dtype(max(map(abs, scaled), default=0))),
            den)


class ArithmeticFunctionSpec:
    """A function F given by direct values and/or its transform F'.

    Exactly those operations whose inputs are available will work;
    anything needing a certified infinite tail insists on an audited
    growth certificate for the relevant side.

    values_array and transform_array optionally give a side as one
    ExactArray on a window [lo, X] (a sieve, a table), which the audit
    reads in place of one call of the side's callable per index; each
    must agree with its callable and cost at most O(X) whatever the spec's
    parameters.  The direct form of indicator:n0 costs O(X - lo), so its
    audit window past n0 costs what the window does, not what n0 does.
    """

    def __init__(
        self,
        name: str,
        *,
        values: Optional[Callable[[int], Fraction]] = None,
        transform: Optional[Callable[[int], Fraction]] = None,
        value_window: Optional[int] = None,
        direct_certificate: Optional[Certificate] = None,
        transform_certificate: Optional[Certificate] = None,
        values_array: Optional[Callable[[int], ExactArray]] = None,
        transform_array: Optional[Callable[[int], ExactArray]] = None,
    ):
        if values is None and transform is None:
            raise ValueError("spec needs direct values or a transform")
        if (values_array and not values) or \
                (transform_array and not transform):
            raise ValueError("an array form needs the side's callable")
        self.name = name
        self._values = values
        self._transform = transform
        self._values_array = values_array
        self._transform_array = transform_array
        self.value_window = value_window
        self.direct_certificate = direct_certificate
        self.transform_certificate = transform_certificate
        self._transform_memo: dict[int, Fraction] = {}
        self._value_memo: dict[int, Fraction] = {}
        self._smooth_memo: dict[tuple[int, bool], tuple] = {}
        self._audited = False
        # Set by catalog constructors whose F is a Ramanujan sum c_{q0};
        # enables exact Euler-product evaluation of smooth series in F.
        self.ramanujan_hint: Optional[int] = None

    def __repr__(self):
        return f"ArithmeticFunctionSpec({self.name!r})"

    # -- evaluation ------------------------------------------------------

    def evaluate(self, n: int) -> Fraction:
        """F(n); for transform-given specs this is the full divisor sum."""
        if n < 1:
            raise ValueError("evaluate needs n >= 1")
        if self._values is not None:
            if self.value_window is not None and n > self.value_window:
                raise IndexError(
                    f"{self.name}: n={n} beyond value window {self.value_window}")
            return Fraction(self._values(n))
        got = self._value_memo.get(n)
        if got is None:
            got = sum((self.transform_value(d) for d in divisors(n)), Fraction(0))
            self._value_memo[n] = got
        return got

    def transform_value(self, d: int) -> Fraction:
        """F'(d), by closed form if given, else by Mobius inversion."""
        if d < 1:
            raise ValueError("transform_value needs d >= 1")
        if self._transform is not None:
            if isinstance(self.transform_certificate, FiniteSupport) and \
                    d > self.transform_certificate.bound:
                return Fraction(0)
            return Fraction(self._transform(d))
        got = self._transform_memo.get(d)
        if got is None:
            got = sum((self.evaluate(t) * mobius(d // t) for t in divisors(d)),
                      Fraction(0))
            self._transform_memo[d] = got
        return got

    @property
    def transform_support(self) -> Optional[int]:
        cert = self.transform_certificate
        return cert.bound if isinstance(cert, FiniteSupport) else None

    def smooth_vector(self, ctx: SmoothContext, X: int,
                      direct: bool) -> tuple[np.ndarray, np.ndarray, int]:
        """(ts, nums, den): the Q-smooth t <= X ascending, and
        F(t) (direct) or F'(t) = nums[i] / den on one denominator.

        Memoized per (Q, side): the vector for the largest X asked so far
        is kept, and a smaller X reads a prefix of it.  A side given as a
        callable is sampled once per smooth t.  A side given only through
        the other is derived from the other's vector on the smooth monoid,
        which holds every divisor of its members: F' = F * mu by one
        Mobius pass H(t) = G(t) - G(t/p) per prime p <= Q, and F = F' * 1
        by one zeta pass H(t) = sum_k G(t/p**k) per prime.  Neither reads
        a dense window of [1, X] (an array form, a Dirichlet sieve): X runs
        to a finite support bound (n0 = 10**12 for indicator:10**12) or
        --L in expand, where the smooth t <= X stay few.
        """
        key = (ctx.Q, direct)
        got = self._smooth_memo.get(key)
        if got is None or got[0] < X:
            got = self._smooth_memo[key] = (X, *self._build_smooth_vector(
                ctx, X, direct))
        _, ts, nums, den = got
        k = int(np.searchsorted(ts, X, side="right"))
        return ts[:k], nums[:k], den

    def _build_smooth_vector(self, ctx: SmoothContext, X: int, direct: bool,
                             ) -> tuple[np.ndarray, np.ndarray, int]:
        ts = np.array(smooth_up_to(ctx, X), dtype=exact_dtype(X))
        if (self._values if direct else self._transform) is not None:
            return (ts, *_over_one_denominator(
                self._given_side(direct, ts.tolist())))
        _, given, den = self.smooth_vector(ctx, X, not direct)
        # every partial sum below adds at most one term per smooth
        # divisor of t, so len(ts) * max|given| bounds each entry
        dtype = exact_dtype(magnitude(given) * len(ts))
        given = given.astype(dtype)
        for p in ctx.primes:
            out = given.copy()
            pk = p
            while pk <= X:
                at = np.flatnonzero(ts % pk == 0)
                below = given[np.searchsorted(ts, ts[at] // pk)]
                if not direct:  # Mobius: H(t) = G(t) - G(t/p)
                    out[at] -= below
                    break
                out[at] += below  # zeta: H(t) = sum over k of G(t/p**k)
                pk *= p
            given = out
        return ts, given, den

    def smooth_sum(self, ctx: SmoothContext, X: int, direct: bool,
                   weight) -> Fraction:
        """Sum over Q-smooth t <= X of x(t) * w(t) / t, with x = F (direct)
        or F' and weight(ts) the integer weights w at the ascending ts.

        One integer sum of x_t w_t (D/t) over den * D on the smooth vector,
        D the lcm of the t with a nonzero weight, in Python ints.
        """
        ts, nums, den = self.smooth_vector(ctx, X, direct)
        w = np.asarray(weight(ts))
        at = np.flatnonzero(w)
        ts, nums, w = ts[at].tolist(), nums[at].tolist(), w[at].tolist()
        D = lcm(*ts)
        return Fraction(sum(x * c * (D // t) for t, x, c in zip(ts, nums, w)),
                        den * D)

    # -- certificate plumbing --------------------------------------------

    def require_transform_certificate(self) -> Certificate:
        cert = self.transform_certificate
        if cert is None:
            raise CertificateError(
                f"{self.name}: no growth certificate for the transform side")
        self.audit()
        return cert

    def require_direct_certificate(self) -> Certificate:
        cert = self.direct_certificate
        if cert is None:
            raise CertificateError(
                f"{self.name}: no growth certificate for the direct side")
        self.audit()
        return cert

    def audit(self) -> None:
        """Sample each claimed certificate over AUDIT_LIMIT indices.

        Runs once per spec; a violated claim aborts with the offending
        index rather than silently producing a wrong tail bound.
        """
        if self._audited:
            return
        claims = []
        cert = self.direct_certificate
        if cert is not None:
            lo = cert.bound + 1 if isinstance(cert, FiniteSupport) else 1
            top = lo - 1 + AUDIT_LIMIT
            claims.append(("F", cert, lo, min(top, self.value_window or top)))
        if isinstance(self.transform_certificate, GrowthCertificate):
            claims.append(("F'", self.transform_certificate, 1, AUDIT_LIMIT))
        for side, cert, lo, hi in claims:
            nums, dens = self._sample(side == "F", lo, hi)
            n = cert.first_violation(nums, dens, lo)
            if n is not None:
                v = Fraction(int(nums[n - lo]), dens if isinstance(dens, int)
                             else int(dens[n - lo]))
                raise CertificateError(f"{self.name}: {side}({n}) = {v} "
                                       f"violates the claimed {cert}")
        self._audited = True

    def direct_window(self, N: int) -> tuple[np.ndarray, int]:
        """(nums, den) with F(n) = nums[n - 1] / den for n in [1, N], on
        one common denominator: F's array form when it has one, else one
        evaluate per n (see _given_side).  Past a value window it raises
        the IndexError of evaluate."""
        if self.value_window is not None and N > self.value_window:
            raise IndexError(f"{self.name}: n={self.value_window + 1} beyond "
                             f"value window {self.value_window}")
        return _over_one_denominator(self._given_side(True, range(1, N + 1)))

    def _sample(self, direct: bool, lo: int, hi: int) -> ExactArray:
        """F (direct) or F' on the window [lo, hi]: a given side as
        _given_side reads it, or else one Dirichlet sieve of the other side
        over [0, hi] on that side's common denominator."""
        if (self._values if direct else self._transform) is not None:
            return self._given_side(direct, range(lo, hi + 1))
        given, den = _over_one_denominator(
            self._given_side(not direct, range(hi + 1)))
        kernel = np.ones(hi + 1, dtype=np.int64) if direct \
            else mobius_sieve(hi)
        return dirichlet_sieve(given, kernel, hi)[lo:], den

    def _given_side(self, direct: bool, ns) -> ExactArray:
        """A given side at the ascending indices ns >= 0, index 0 reading
        0: on a window ns = range(lo, hi + 1), its array form when it has
        one; else one call of its callable per index, each value over its
        own denominator.  An array form may cost O(hi) however few the
        indices, so sparse indices (the smooth t <= X) never read it."""
        array = self._values_array if direct else self._transform_array
        if array is not None and isinstance(ns, range):
            return array(ns.stop - 1, ns.start)
        at = self.evaluate if direct else self.transform_value
        vals = [at(n) if n else Fraction(0) for n in ns]
        return (np.array([x.numerator for x in vals], dtype=object),
                np.array([x.denominator for x in vals], dtype=object))


# -- catalog -------------------------------------------------------------

# Array forms of the catalog callables, each on a window [lo, X] with
# index 0 reading 0.  Each is built when the audit asks for it, never at
# import or construction.

def _zeroed(nums: np.ndarray, lo: int) -> ExactArray:
    """nums on [lo, X] with index 0, when lo = 0, set to 0, over the
    denominator 1."""
    if lo == 0:
        nums[0] = 0
    return nums, 1


def _over_index(X: int, lo: int) -> np.ndarray:
    """The denominator n at each index n of [lo, X], 1 at index 0."""
    return np.maximum(np.arange(lo, X + 1, dtype=np.int64), 1)


def _point(n0: int, X: int, lo: int) -> np.ndarray:
    """[1 if n == n0 else 0 for n in lo..X], in O(X - lo)."""
    nums = np.zeros(X + 1 - lo, dtype=np.int64)
    if lo <= n0 <= X:
        nums[n0 - lo] = 1
    return nums


def _multiples(n0: int, X: int, lo: int) -> np.ndarray:
    """[mu(n / n0) if n0 | n else 0 for n in lo..X], n = 0 reading 0, in
    O(X - lo + X // n0)."""
    nums = np.zeros(X + 1 - lo, dtype=np.int64)
    first, last = max(-(-lo // n0), 1), X // n0  # the multiples k n0 inside
    if first <= last:
        nums[first * n0 - lo::n0] = mobius_sieve(last)[first:]
    return nums


def _table_array(entries: dict[int, Fraction], X: int,
                 lo: int) -> ExactArray:
    """The entries at indices in [lo, X] placed on that window, zero
    elsewhere, each over its own denominator."""
    at = [n for n in entries if lo <= n <= X]
    nums = [entries[n].numerator for n in at]
    dens = [entries[n].denominator for n in at]
    num_array = np.zeros(X + 1 - lo,
                         dtype=exact_dtype(max(map(abs, nums), default=0)))
    den_array = np.ones(X + 1 - lo, dtype=exact_dtype(max(dens, default=1)))
    num_array[[n - lo for n in at]] = nums
    den_array[[n - lo for n in at]] = dens
    return num_array, den_array


def constant_one() -> ArithmeticFunctionSpec:
    """F identically 1; transform is the indicator of 1."""
    spec = ArithmeticFunctionSpec(
        "constant-one",
        values=lambda n: Fraction(1),
        transform=lambda d: Fraction(1 if d == 1 else 0),
        direct_certificate=GrowthCertificate(1, 0),
        transform_certificate=FiniteSupport(1),
        values_array=lambda X, lo=0: _zeroed(
            np.ones(X + 1 - lo, dtype=np.int64), lo),
    )
    # constant-one is the modulus-1 Ramanujan sum; exact Euler-product
    # evaluation of its smooth series reuses that fact.
    spec.ramanujan_hint = 1
    return spec


def point_mass(n0: int) -> ArithmeticFunctionSpec:
    """Indicator of the single point n0.

    The transform mu(d/n0) on multiples of n0 has infinite support, but
    stays bounded by 1.
    """
    if n0 < 1:
        raise ValueError("point mass needs n0 >= 1")
    return ArithmeticFunctionSpec(
        f"indicator:{n0}",
        values=lambda n: Fraction(1 if n == n0 else 0),
        transform=lambda d: Fraction(mobius(d // n0) if d % n0 == 0 else 0),
        direct_certificate=FiniteSupport(n0),
        transform_certificate=GrowthCertificate(1, 0),
        values_array=lambda X, lo=0: (_point(n0, X, lo), 1),
        transform_array=lambda X, lo=0: (_multiples(n0, X, lo), 1),
    )


def ramanujan_modulus(q0: int) -> ArithmeticFunctionSpec:
    """n -> c_{q0}(n); transform d * mu(q0/d) supported on divisors of q0."""
    if q0 < 1:
        raise ValueError("ramanujan modulus needs q0 >= 1")
    spec = ArithmeticFunctionSpec(
        f"ramanujan:{q0}",
        values=lambda n: Fraction(ramanujan_sum(q0, n)),
        transform=lambda d: Fraction(d * mobius(q0 // d) if q0 % d == 0 else 0),
        direct_certificate=GrowthCertificate(q0, 0),
        transform_certificate=FiniteSupport(q0),
        values_array=lambda X, lo=0: _zeroed(
            ramanujan_sums(q0, range(lo, X + 1)), lo),
    )
    spec.ramanujan_hint = q0
    return spec


def mobius_spec() -> ArithmeticFunctionSpec:
    # mu * mu is 2**omega-sized, comfortably under 2 * d**(1/2) at desk scale.
    return ArithmeticFunctionSpec(
        "mu",
        values=lambda n: Fraction(mobius(n)),
        direct_certificate=GrowthCertificate(1, 0),
        transform_certificate=GrowthCertificate(2, Fraction(1, 2)),
        values_array=lambda X, lo=0: (mobius_sieve(X)[lo:], 1),
    )


def mobius_squared_spec() -> ArithmeticFunctionSpec:
    return ArithmeticFunctionSpec(
        "mu-squared",
        values=lambda n: Fraction(mobius(n) ** 2),
        direct_certificate=GrowthCertificate(1, 0),
        transform_certificate=GrowthCertificate(1, 0),
        values_array=lambda X, lo=0: (mobius_sieve(X)[lo:] ** 2, 1),
    )


def totient_ratio_spec() -> ArithmeticFunctionSpec:
    """n -> phi(n)/n, whose transform is mu(d)/d."""
    return ArithmeticFunctionSpec(
        "phi-over-n",
        values=lambda n: Fraction(euler_phi(n), n),
        transform=lambda d: Fraction(mobius(d), d),
        direct_certificate=GrowthCertificate(1, 0),
        transform_certificate=GrowthCertificate(1, 0),
        values_array=lambda X, lo=0: (totient_sieve(X)[lo:],
                                      _over_index(X, lo)),
        transform_array=lambda X, lo=0: (mobius_sieve(X)[lo:],
                                         _over_index(X, lo)),
    )


CATALOG = {
    "constant-one": constant_one,
    "mu": mobius_spec,
    "mu-squared": mobius_squared_spec,
    "phi-over-n": totient_ratio_spec,
}


def catalog_spec(identifier: str) -> ArithmeticFunctionSpec:
    """Build a spec from a catalog id.

    Plain ids: constant-one, mu, mu-squared, phi-over-n.  Parametrized:
    indicator:<n0> and ramanujan:<q0>.
    """
    if identifier in CATALOG:
        return CATALOG[identifier]()
    if ":" in identifier:
        kind, _, arg = identifier.partition(":")
        if kind == "indicator":
            return point_mass(int(arg))
        if kind == "ramanujan":
            return ramanujan_modulus(int(arg))
    raise ValueError(f"unknown catalog function {identifier!r}")


# -- table / file backed specs ---------------------------------------------

def spec_from_table(name: str, mode: str, entries: dict[int, Fraction],
                    certificate: Optional[GrowthCertificate] = None,
                    ) -> ArithmeticFunctionSpec:
    """Spec from a finite table.

    mode "direct": the table is a window of F on [1, max index], where an
    index it omits reads 0; values beyond the window are unavailable.
    mode "eratosthenes": the table is the complete transform (finite
    support at the max index), so F is defined everywhere; without a
    declared certificate, a direct-side one follows from the triangle
    inequality.  Either keeps only the given entries, so its cost follows
    their number, not the max index.
    """
    if not entries:
        raise ValueError("empty function table")
    top = max(entries)
    if min(entries) < 1:
        raise ValueError("table indices start at 1")
    given = {n: Fraction(v) for n, v in entries.items()}
    if mode == "direct":
        return ArithmeticFunctionSpec(
            name,
            values=lambda n: given.get(n, Fraction(0)),
            value_window=top,
            direct_certificate=certificate,
            values_array=lambda X, lo=0: _table_array(given, X, lo),
        )
    if mode == "eratosthenes":
        mass = sum(abs(v) for v in given.values())
        return ArithmeticFunctionSpec(
            name,
            transform=lambda d: given.get(d, Fraction(0)),
            transform_certificate=FiniteSupport(top),
            direct_certificate=certificate or GrowthCertificate(max(mass, 1), 0),
            transform_array=lambda X, lo=0: _table_array(given, X, lo),
        )
    raise ValueError(f"unknown table mode {mode!r}")


def format_rational(x: Fraction) -> str:
    """Serialize as numerator/denominator in lowest terms, sign first."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def format_rationals(nums: np.ndarray, den: int) -> list[str]:
    """[format_rational(Fraction(x, den)) for x in nums], den >= 1: each
    x/den in lowest terms, by one np.gcd over the vector when den and
    every |x| fit int64, else by one math.gcd per entry on Python ints."""
    if den < 1:
        raise ValueError("format_rationals needs a denominator >= 1")
    if exact_dtype(max(magnitude(nums), den)) is np.int64:
        nums = nums.astype(np.int64, copy=False)
        common = np.gcd(nums, den)
        return [f"{p}/{q}" for p, q in zip((nums // common).tolist(),
                                           (den // common).tolist())]
    out = []
    for x in nums.tolist():
        common = gcd(x, den)
        out.append(f"{x // common}/{den // common}")
    return out


def parse_rational(text: str) -> Fraction:
    """Exact `p/q` or integer; ValueError otherwise, zero q included."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return Fraction(int(text))


def parse_function_file(path) -> ArithmeticFunctionSpec:
    """Read the tab-separated exact-rational function-table format.

    Header: `#mode=direct|eratosthenes [#C=<rat>] [#eps=<rat>]`.
    Body: one `n<TAB>p/q` record per line.  Exact parsing; duplicate
    indices and malformed rationals are rejected.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing header line")
    mode = None
    cert_bound = None
    cert_eps = None
    for token in lines[0].split():
        if not token.startswith("#") or "=" not in token:
            raise ValueError(f"{path}: bad header token {token!r}")
        key, _, val = token[1:].partition("=")
        if key == "mode":
            mode = val
        elif key == "C":
            cert_bound = parse_rational(val)
        elif key == "eps":
            cert_eps = parse_rational(val)
        else:
            raise ValueError(f"{path}: unknown header key {key!r}")
    if mode not in ("direct", "eratosthenes"):
        raise ValueError(f"{path}: header must set #mode=direct|eratosthenes")
    entries: dict[int, Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}: expected `n<TAB>value`, got {ln!r}")
        n = int(parts[0])
        if n < 1:
            raise ValueError(f"{path}: index {n} out of range")
        if n in entries:
            raise ValueError(f"{path}: duplicate index {n}")
        entries[n] = parse_rational(parts[1])
    certificate = None
    if cert_bound is not None or cert_eps is not None:
        if cert_bound is None or cert_eps is None:
            raise ValueError(f"{path}: #C and #eps must be given together")
        certificate = GrowthCertificate(cert_bound, cert_eps)
    spec = spec_from_table(str(path), mode, entries, certificate)
    spec.audit()
    return spec


# -- smooth restriction and the switch identity ----------------------------

def smooth_restrict(spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                    n: int) -> Fraction:
    """Divisor sum of F' restricted to Q-smooth divisors of n.

    Agrees with F(n) whenever n itself is smooth, and the transform of
    the restricted function is F' times the smooth indicator.
    """
    if n < 1:
        raise ValueError("smooth_restrict needs n >= 1")
    sm = ctx.smooth_part(n)
    return sum((spec.transform_value(d) for d in divisors(sm)), Fraction(0))


def mobius_switch_rhs(spec: ArithmeticFunctionSpec, ctx: SmoothContext,
                      a: int) -> Fraction:
    """Sum of F(t) over smooth t | a with a/t sifted.

    The unique smooth-sifted factorization makes this equal to
    smooth_restrict for every F and every a; computing both sides is the
    standard cross-check.
    """
    if a < 1:
        raise ValueError("mobius_switch_rhs needs a >= 1")
    total = Fraction(0)
    for t in divisors(ctx.smooth_part(a)):
        if ctx.is_sifted(a // t):
            total += spec.evaluate(t)
    return total


# -- functions of range Q ---------------------------------------------------

@dataclass(frozen=True)
class RangeQFunction:
    """A truncated divisor sum g(m) = sum_{d|m, d<=Q} g'(d).

    ghat(q) = sum over multiples d of q up to Q of g'(d)/d gives the exact
    finite expansion g(m) = sum_{q<=Q} ghat(q) c_q(m), materialized once
    at construction.
    """

    Q: int
    gprime: tuple[Fraction, ...]
    ghat: tuple[Fraction, ...]

    def coefficient(self, q: int) -> Fraction:
        """ghat(q); zero beyond the range."""
        if q < 1:
            raise ValueError("coefficient index must be >= 1")
        return self.ghat[q - 1] if q <= self.Q else Fraction(0)

    def __call__(self, m: int) -> Fraction:
        if m < 1:
            raise ValueError("range-Q functions are defined on n >= 1")
        return sum((self.gprime[d - 1] for d in range(1, min(self.Q, m) + 1)
                    if m % d == 0), Fraction(0))

    def period_table(self, period: int) -> tuple[np.ndarray, int]:
        """(nums, den) with g(m) = nums[m - 1] / den for m in [1, period],
        by sieving g' over the window on its common denominator."""
        nums, den = common_denominator((0,) + self.gprime)
        out = dirichlet_sieve(nums, np.ones(period + 1, dtype=np.int64), period)
        return out[1:], den


def build_range_q(Q: int, gprime) -> RangeQFunction:
    """RangeQFunction from transform values g'(1..Q).

    gprime may be a sequence of length Q or a mapping {d: value}.
    """
    if Q < 1:
        raise ValueError("range bound must be >= 1")
    if isinstance(gprime, dict):
        bad = [d for d in gprime if not 1 <= d <= Q]
        if bad:
            raise ValueError(f"transform indices {bad} outside [1, {Q}]")
        vals = [Fraction(gprime.get(d, 0)) for d in range(1, Q + 1)]
    else:
        vals = [Fraction(v) for v in gprime]
        if len(vals) != Q:
            raise ValueError("gprime must cover exactly [1, Q]")
    ghat = []
    for q in range(1, Q + 1):
        ghat.append(sum((vals[d - 1] / d for d in range(q, Q + 1, q)),
                        Fraction(0)))
    return RangeQFunction(Q, tuple(vals), tuple(ghat))


def range_q(spec: ArithmeticFunctionSpec, Q: int | None = None,
            ) -> RangeQFunction:
    """F as a range-Q function, for a spec whose transform F' has a finite
    support s: g' = F' on [1, s], and Q = s unless given (then Q >= s)."""
    support = spec.transform_support
    if support is None:
        raise ValueError(f"{spec.name} has no finite transform support")
    Q = support if Q is None else Q
    if Q < support:
        raise ValueError(f"range bound {Q} below the transform support "
                         f"{support}")
    return build_range_q(Q, {d: spec.transform_value(d)
                             for d in range(1, support + 1)})


def range_q_ramanujan(q0: int, Q: int | None = None) -> RangeQFunction:
    """c_{q0} as a range-Q function (its transform lives on divisors of q0)."""
    return range_q(ramanujan_modulus(q0), Q)


def finite_ramanujan_eval(g: RangeQFunction, m: int) -> Fraction:
    """Evaluate g through its finite expansion sum_q ghat(q) c_q(m).

    Exactly equals the truncated divisor sum for every m.
    """
    if m < 1:
        raise ValueError("finite_ramanujan_eval needs m >= 1")
    return sum((g.ghat[q - 1] * ramanujan_sum(q, m) for q in range(1, g.Q + 1)),
               Fraction(0))
