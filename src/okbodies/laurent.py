"""Sparse Laurent polynomials over an ordered tuple of variable keys.

Variables are identified by arbitrary hashable keys, in practice partition
labels plus the occasional auxiliary symbol ("q", "t").  A polynomial
stores its exponent vectors aligned with a fixed ``vars`` tuple; arithmetic
between polynomials over different universes is refused rather than
coerced, since silently reindexing exponents is how sign errors happen.

Integer coefficients only.  Division is deliberately absent: everything
downstream is division-free.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

Exponent = tuple[int, ...]


class LaurentPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars: tuple, terms: dict[Exponent, int]):
        self.vars = tuple(vars)
        clean: dict[Exponent, int] = {}
        width = len(self.vars)
        for exps, coeff in terms.items():
            if len(exps) != width:
                raise ValueError(f"exponent {exps} has wrong width for {width} variables")
            if coeff:
                clean[tuple(exps)] = clean.get(tuple(exps), 0) + coeff
        self.terms = {e: c for e, c in clean.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple) -> "LaurentPoly":
        return cls(vars, {})

    @classmethod
    def one(cls, vars: tuple) -> "LaurentPoly":
        return cls(vars, {(0,) * len(vars): 1})

    @classmethod
    def constant(cls, vars: tuple, c: int) -> "LaurentPoly":
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def monomial(cls, vars: tuple, exps: Iterable[int], coeff: int = 1) -> "LaurentPoly":
        return cls(vars, {tuple(exps): coeff})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("mixed variable universes")

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.vars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.vars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict[Exponent, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return LaurentPoly(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValueError("negative powers of polynomials are not defined here")
        result = LaurentPoly.one(self.vars)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == LaurentPoly.constant(self.vars, other).terms
        return isinstance(other, LaurentPoly) and self.vars == other.vars and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- text form ---------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({format_laurent(self)})"

    def __str__(self):
        return format_laurent(self)

    # -- the operations downstream actually needs --------------------------

    def eval_mod_p(self, assignment: dict, p: int) -> int:
        """Evaluate at a point with coordinates in the prime field F_p.

        Negative exponents go through the modular inverse; a zero value
        under a negative exponent raises ZeroDivisionError.
        """
        values = [assignment[v] % p for v in self.vars]
        total = 0
        for exps, coeff in self.terms.items():
            term = coeff % p
            for val, e in zip(values, exps):
                if e == 0:
                    continue
                if e < 0:
                    if val == 0:
                        raise ZeroDivisionError("zero base with negative exponent")
                    term = term * pow(val, -e * (p - 2), p) % p
                else:
                    term = term * pow(val, e, p) % p
            total = (total + term) % p
        return total

    def strongly_min_term(self) -> Optional[tuple[Exponent, int]]:
        """The term at the componentwise minimum of the support, if present.

        Returns None when the componentwise minimum is not itself an
        exponent of the polynomial, which does happen; callers that require
        existence must treat None as an error themselves.
        """
        if not self.terms:
            return None
        m = tuple(map(min, zip(*self.terms)))
        return (m, self.terms[m]) if m in self.terms else None

    def strongly_max_term(self) -> Optional[tuple[Exponent, int]]:
        if not self.terms:
            return None
        m = tuple(map(max, zip(*self.terms)))
        return (m, self.terms[m]) if m in self.terms else None


def format_laurent(p: LaurentPoly, key_str: Optional[Callable] = None) -> str:
    """Human-readable form, deterministic term order.

    Variable keys are rendered with ``key_str`` (default: partitions as
    ``(3,2)``, everything else via str).
    """
    if key_str is None:
        def key_str(key):
            if isinstance(key, tuple):
                inner = ",".join(str(x) for x in key) if key else "0"
                return f"({inner})"
            return str(key)

    if not p.terms:
        return "0"
    parts = []
    for exps in sorted(p.terms):
        coeff = p.terms[exps]
        factors = [
            key_str(v) + (f"^{e}" if e != 1 else "")
            for v, e in zip(p.vars, exps)
            if e != 0
        ]
        body = "*".join(factors) if factors else str(abs(coeff))
        if factors and abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else text
