"""Exact multivariate polynomial arithmetic on a declared phase space.

Polynomials are sparse maps from exponent tuples to nonzero rational
coefficients.  The canonical term order is graded lexicographic over the
declared identifier order (q1..qn, p1..pn, then parameters), which makes
printing and leading-term extraction deterministic.  All values are
immutable after construction and every operation is a pure function.

Construction is trusted inside the kernel.  The public constructor
``PhasePolynomial(space, terms)`` refuses a monomial that is not a tuple of
``space.n_identifiers`` non-negative ints, coerces every coefficient with
``Fraction()`` and drops zeros, because callers pass ints.  Every kernel
result (sums, products, scalings, derivatives, brackets, embeddings and the
constant constructors) is built by ``_adopt(space, terms)`` instead, which
keeps ``terms`` as it is.  Its invariant: ``terms`` is a fresh dict that no
one else holds, and every value in it is a nonzero ``Fraction``.  Sums and
brackets accumulate with ``dict.get`` and drop cancelled terms once, at the
end.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress
from operator import add, attrgetter
from typing import Collection, Iterable, Mapping, Union

from .errors import ProductTooLargeError, SpaceMismatchError

Exponents = tuple[int, ...]
RationalLike = Union[Fraction, int]

_PARAMETER_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VARIABLE_SHAPE_RE = re.compile(r"[qp][0-9]+\Z")

# Most pairs of terms one product or Poisson bracket may form.  At the cap
# either takes about 0.85 s of CPU (Python 3.11 on a 2-vCPU Xeon VM); the
# benchmark's workloads form at most 38 pairs.
MAX_TERM_PAIRS = 100_000

# Most exponent entries one product, bracket or parsed sum may store: its
# terms (a product's or bracket's term pairs) times the space's identifiers,
# since every term is a tuple of one entry per identifier.  At the cap the
# tuples hold 16 MB of entry pointers (8 bytes each on a 64-bit build).  The
# test suite forms at most 46314 (a bracket of a 1-term and a 186-term
# polynomial over 249 identifiers) and parses at most 40002.
MAX_TERM_ENTRIES = 2_000_000

# Most degrees of freedom a phase space may declare.  Exponent tuples have
# 2 * n_dof + len(parameters) entries: `chain` on a one-line model with a
# million took 3.3 s of CPU and 336 MB (Python 3.11 on a 2-vCPU Xeon VM).
# The test suite's largest space has 48.
MAX_DOF = 10_000

# Most bits a power may give its coefficients, by the estimate of
# `check_power`.  8192 bits are 2467 decimal digits, below Python's limit of
# 4300 digits for printing an integer; `2^15000` would pass that limit.
MAX_COEFFICIENT_BITS = 8192


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in ``__slots__`` and sets them in
    ``__init__`` through ``object.__setattr__``; setting or deleting any
    attribute afterwards raises ``AttributeError``.  Two instances of one
    class are equal, and hash alike, when the fields named in ``_compared``
    are; ``repr`` shows the fields named in ``_shown``.  A subclass may
    define its own equality, hash and repr instead, as ``PhasePolynomial``
    does.  ``_compared`` names the constructor's arguments in order: a copy
    or an unpickled instance is rebuilt by calling the class on them, so it
    passes the constructor's checks and derives its private slots afresh.
    The fields are fetched by one ``attrgetter`` per class, built when it is
    defined; every subclass compares at least two fields, so it gives a tuple.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._compared_fields = attrgetter(*cls._compared)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self) -> tuple:
        return self._compared_fields(self)

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), self._key()


class PhaseSpace(_Frozen):
    """Canonical pairs q1..qn, p1..pn plus inert scalar parameters.

    Parameters commute with everything and have zero bracket with every
    variable; they always include the energy symbol ``E``.  A space refuses
    setting and deleting any attribute; two spaces are equal, and hash
    alike, when their ``n_dof`` and ``parameters`` are.
    """

    __slots__ = ("n_dof", "parameters", "identifiers", "_index")
    _compared = _shown = ("n_dof", "parameters")

    def __init__(self, n_dof: int, parameters: Iterable[str] = ("E",)):
        if not isinstance(n_dof, int) or n_dof < 1:
            raise ValueError(f"n_dof must be a positive integer, got {n_dof!r}")
        if n_dof > MAX_DOF:
            raise ValueError(f"n_dof must be at most {MAX_DOF}, got {n_dof}")
        params = tuple(parameters)
        if "E" not in params:
            raise ValueError("parameter list must include the energy symbol E")
        seen = set()
        for name in params:
            if not _PARAMETER_NAME_RE.match(name):
                raise ValueError(f"invalid parameter name {name!r}")
            if _VARIABLE_SHAPE_RE.match(name):
                raise ValueError(
                    f"parameter name {name!r} collides with the q/p variable namespace"
                )
            if name in seen:
                raise ValueError(f"duplicate parameter name {name!r}")
            seen.add(name)
        object.__setattr__(self, "n_dof", n_dof)
        object.__setattr__(self, "parameters", params)
        idents = tuple(
            [f"q{i}" for i in range(1, n_dof + 1)]
            + [f"p{i}" for i in range(1, n_dof + 1)]
            + list(params)
        )
        object.__setattr__(self, "identifiers", idents)
        object.__setattr__(self, "_index", {name: k for k, name in enumerate(idents)})

    @property
    def n_identifiers(self) -> int:
        return len(self.identifiers)

    def index(self, name: str) -> int:
        """Position of an identifier in the declared order; KeyError if absent."""
        return self._index[name]

    def has_identifier(self, name: str) -> bool:
        return name in self._index

    def extend(self, extra_parameters: Iterable[str]) -> "PhaseSpace":
        """New space with extra parameters appended after the existing ones."""
        return PhaseSpace(self.n_dof, self.parameters + tuple(extra_parameters))

    def extends(self, other: "PhaseSpace") -> bool:
        """True if this space is `other` plus zero or more appended parameters."""
        return (
            self.n_dof == other.n_dof
            and self.parameters[: len(other.parameters)] == other.parameters
        )


def _grlex_key(monomial: Exponents) -> tuple:
    return (sum(monomial), monomial)


class PhasePolynomial(_Frozen):
    """Sparse exact polynomial over the rationals on one phase space.

    A polynomial refuses setting and deleting any attribute, and all
    arithmetic returns new objects.  The hash, the total degree, the used
    identifier positions and the canonical pairs it touches (two bitmasks,
    see ``_pair_masks``) are computed on first use and kept in the slots
    ``_hash``, ``_degree``, ``_used`` and ``_pairs``, which stay unset until
    then.
    Equality, hash and repr are its own rather than ``_Frozen``'s: an int or
    a ``Fraction`` compares as a constant polynomial, and the hash is kept.
    """

    __slots__ = ("space", "terms", "_hash", "_degree", "_used", "_pairs")
    _compared = ("space", "terms")

    def __init__(self, space: PhaseSpace, terms: Mapping[Exponents, RationalLike]):
        n = space.n_identifiers
        cleaned: dict[Exponents, Fraction] = {}
        for monomial, coeff in terms.items():
            if not (
                type(monomial) is tuple
                and len(monomial) == n
                and all(type(e) is int and e >= 0 for e in monomial)
            ):
                raise ValueError(
                    f"monomial {monomial!r} is not a tuple of {n} non-negative ints"
                )
            coeff = Fraction(coeff)
            if coeff:
                cleaned[monomial] = coeff
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", cleaned)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, space: PhaseSpace) -> "PhasePolynomial":
        return _adopt(space, {})

    @classmethod
    def constant(cls, space: PhaseSpace, value: RationalLike) -> "PhasePolynomial":
        value = Fraction(value)
        return _adopt(space, {(0,) * space.n_identifiers: value} if value else {})

    @classmethod
    def variable(cls, space: PhaseSpace, name: str) -> "PhasePolynomial":
        idx = space.index(name)
        exps = [0] * space.n_identifiers
        exps[idx] = 1
        return _adopt(space, {tuple(exps): _ONE})

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        try:
            return self._degree
        except AttributeError:
            degree = max(map(sum, self.terms), default=-1)
            object.__setattr__(self, "_degree", degree)
            return degree

    def constant_value(self) -> Fraction:
        """Value of a constant polynomial; ValueError if non-constant."""
        zero_mon = (0,) * self.space.n_identifiers
        for monomial in self.terms:
            if monomial != zero_mon:
                raise ValueError(f"polynomial {self} is not constant")
        return self.terms.get(zero_mon, _ZERO)

    def used_indices(self) -> frozenset[int]:
        """Identifier positions with a nonzero exponent somewhere."""
        try:
            return self._used
        except AttributeError:
            indices = range(self.space.n_identifiers)
            used = set()
            for monomial in self.terms:
                used.update(compress(indices, monomial))
            used = frozenset(used)
            object.__setattr__(self, "_used", used)
            return used

    def _pair_masks(self) -> tuple[int, int]:
        """Bitmasks of the canonical pairs i whose q_i, and whose p_i, occur.

        Bit i of the first mask is set when q_i has a nonzero exponent in
        some term, bit i of the second when p_i has; parameters are ignored.
        The variables of each term are picked out by ``compress`` rather
        than a Python loop over every exponent, so the first bracket of a
        freshly built polynomial pays little for its masks.
        """
        try:
            return self._pairs
        except AttributeError:
            n = self.space.n_dof
            variables = range(2 * n)
            bits = 0
            for monomial in self.terms:
                for idx in compress(variables, monomial):
                    bits |= 1 << idx
            masks = (bits & ((1 << n) - 1), bits >> n)
            object.__setattr__(self, "_pairs", masks)
            return masks

    def coefficient(self, monomial: Exponents) -> Fraction:
        return self.terms.get(monomial, _ZERO)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _check_space(self, other: "PhasePolynomial") -> None:
        # Operands nearly always share one space object: skip the call to
        # the space's __eq__ then.
        if self.space is not other.space and self.space != other.space:
            raise SpaceMismatchError(
                f"operands live on different phase spaces: "
                f"{self.space!r} vs {other.space!r}"
            )

    def __add__(self, other):
        if isinstance(other, PhasePolynomial):
            self._check_space(other)
            result = dict(self.terms)
            get = result.get
            for monomial, coeff in other.terms.items():
                old = get(monomial)
                if old is None:
                    result[monomial] = coeff
                else:
                    new = old + coeff
                    if new:
                        result[monomial] = new
                    else:
                        del result[monomial]
            return _adopt(self.space, result)
        if isinstance(other, (int, Fraction)):
            return self + PhasePolynomial.constant(self.space, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _adopt(self.space, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (PhasePolynomial, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return PhasePolynomial.constant(self.space, other) - self
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, PhasePolynomial):
            self._check_space(other)
            _check_term_pairs("product", self, other)
            result: dict[Exponents, Fraction] = {}
            get = result.get
            merged = False
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    prod = tuple(map(add, m1, m2))
                    old = get(prod)
                    if old is None:
                        result[prod] = c1 * c2
                    else:
                        result[prod] = old + c1 * c2
                        merged = True
            return _adopt(self.space, _nonzero(result) if merged else result)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "PhasePolynomial":
        factor = Fraction(factor)
        if not factor:
            return _adopt(self.space, {})
        return _adopt(self.space, {m: c * factor for m, c in self.terms.items()})

    def __pow__(self, exponent: int) -> "PhasePolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        check_power(self.terms.values(), exponent)
        result = PhasePolynomial.constant(self.space, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # calculus
    # ------------------------------------------------------------------
    def partial(self, name: str) -> "PhasePolynomial":
        """Formal partial derivative with respect to a declared identifier."""
        if not self.space.has_identifier(name):
            raise KeyError(f"undeclared identifier {name!r}")
        idx = self.space.index(name)
        result: dict[Exponents, Fraction] = {}
        for monomial, coeff in self.terms.items():
            exp = monomial[idx]
            if exp:
                # Distinct terms lower to distinct monomials: nothing to merge.
                lowered = list(monomial)
                lowered[idx] = exp - 1
                result[tuple(lowered)] = coeff * exp
        return _adopt(self.space, result)

    # ------------------------------------------------------------------
    # space embedding
    # ------------------------------------------------------------------
    def in_space(self, target: PhaseSpace) -> "PhasePolynomial":
        """Embed into a space that extends this one by appended parameters."""
        if target == self.space:
            return self
        if not target.extends(self.space):
            raise SpaceMismatchError(
                f"{target!r} does not extend {self.space!r}"
            )
        pad = (0,) * (target.n_identifiers - self.space.n_identifiers)
        return _adopt(target, {m + pad: c for m, c in self.terms.items()})

    # ------------------------------------------------------------------
    # equality / hashing / printing
    # ------------------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, PhasePolynomial):
            return self.space == other.space and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == PhasePolynomial.constant(self.space, other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            cached = hash((self.space, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", cached)
            return cached

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def _monomial_str(self, monomial: Exponents) -> str:
        """The factors of `monomial`, its nonzero exponents picked out by
        ``compress`` rather than a Python loop over every exponent."""
        identifiers = self.space.identifiers
        return "*".join(
            identifiers[idx] if monomial[idx] == 1 else f"{identifiers[idx]}^{monomial[idx]}"
            for idx in compress(range(len(monomial)), monomial)
        )

    def __str__(self) -> str:
        """Terms in descending graded-lex order; the sign and the unit case
        are read from each coefficient's numerator and denominator."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for position, (monomial, coeff) in enumerate(self.sorted_terms()):
            mon = self._monomial_str(monomial)
            num = coeff.numerator
            unit = coeff.denominator == 1 and abs(num) == 1
            if position == 0:
                # Leading term carries its sign inside the rational literal so
                # the printed form stays inside the expression grammar.
                if not mon:
                    pieces.append(str(coeff))
                elif unit and num == 1:
                    pieces.append(mon)
                else:
                    pieces.append(f"{coeff}*{mon}")
            else:
                sign = " + " if num > 0 else " - "
                if mon and unit:
                    pieces.append(f"{sign}{mon}")
                else:
                    # str raises ValueError past Python's digit limit.
                    mag = str(coeff).lstrip("-")
                    pieces.append(f"{sign}{mag}*{mon}" if mon else f"{sign}{mag}")
        return "".join(pieces)

    def __repr__(self):
        return f"PhasePolynomial({self})"


_ZERO = Fraction(0)
_ONE = Fraction(1)
_new = object.__new__
_set = object.__setattr__


def _adopt(space: PhaseSpace, terms: dict[Exponents, Fraction]) -> PhasePolynomial:
    """The kernel's trusted constructor: keep `terms` as the new polynomial's.

    `terms` must be a fresh dict that no one else holds, and every value in it
    a nonzero ``Fraction``; nothing is copied, coerced or checked.
    """
    poly = _new(PhasePolynomial)
    _set(poly, "space", space)
    _set(poly, "terms", terms)
    return poly


def _nonzero(terms: dict[Exponents, Fraction]) -> dict[Exponents, Fraction]:
    return {m: c for m, c in terms.items() if c}


def check_power(coefficients: Collection[Fraction], exponent: int) -> None:
    """Refuse a power whose coefficients could pass ``MAX_COEFFICIENT_BITS``.

    The estimate of their bit length is exponent * log2(t * c) for t terms
    whose largest numerator or denominator is c.  For integer coefficients it
    is a bound: a coefficient of f^k sums at most t^k products of k
    coefficients.  An exponent of 0 or 1 builds nothing new.
    """
    if exponent < 2 or not coefficients:
        return
    bits = exponent * math.log2(len(coefficients) * _largest(coefficients))
    if bits > MAX_COEFFICIENT_BITS:
        raise ProductTooLargeError(
            f"power {exponent} of a {len(coefficients)}-term polynomial could "
            f"build coefficients of {math.ceil(bits)} bits, over the limit of "
            f"{MAX_COEFFICIENT_BITS}"
        )


def _largest(coefficients: Iterable[Fraction]) -> int:
    """The largest numerator or denominator in absolute value; 1 for none."""
    return max((max(abs(c.numerator), c.denominator) for c in coefficients), default=1)


def check_coefficients(
    coefficients: Iterable[Fraction], *factors: Iterable[Fraction]
) -> None:
    """Refuse a product whose coefficients pass ``MAX_COEFFICIENT_BITS``.

    A coefficient passes it when log2 of its numerator or denominator does,
    the measure ``check_power`` estimates.  Given the coefficients of the
    product's `factors`, the product is refused only when its largest
    coefficient is also larger than every factor's: a product that builds
    nothing larger than it was given is accepted, as a single literal is,
    however its factors are written.
    """
    largest = _largest(coefficients)
    bits = math.log2(largest)
    if bits > MAX_COEFFICIENT_BITS and all(largest > _largest(f) for f in factors):
        raise ProductTooLargeError(
            f"product builds coefficients of {math.ceil(bits)} bits, over the "
            f"limit of {MAX_COEFFICIENT_BITS}"
        )


def _check_term_pairs(operation: str, f: PhasePolynomial, g: PhasePolynomial) -> None:
    pairs = len(f.terms) * len(g.terms)
    if pairs > MAX_TERM_PAIRS:
        raise ProductTooLargeError(
            f"{operation} of a {len(f.terms)}-term and a {len(g.terms)}-term "
            f"polynomial would form {pairs} term pairs, over the limit of "
            f"{MAX_TERM_PAIRS}"
        )
    entries = pairs * len(f.space.identifiers)
    if entries > MAX_TERM_ENTRIES:
        raise ProductTooLargeError(
            f"{operation} of a {len(f.terms)}-term and a {len(g.terms)}-term "
            f"polynomial over {f.space.n_identifiers} identifiers could store "
            f"{entries} exponent entries, over the limit of {MAX_TERM_ENTRIES}"
        )


def _shared_pairs(f: PhasePolynomial, g: PhasePolynomial) -> int:
    """Bitmask of the canonical pairs i with q_i in one of f, g and p_i in
    the other; zero exactly when {f, g} is zero by the masks alone.

    Only those pairs can give a term of the bracket, so a caller may skip a
    bracket this answers 0 for.  It refuses first what ``poisson`` refuses,
    in the same order: operands on different spaces (SpaceMismatchError),
    then too many term pairs (ProductTooLargeError), zero bracket or not.
    """
    f._check_space(g)
    _check_term_pairs("bracket", f, g)
    fq, fp = f._pair_masks()
    gq, gp = g._pair_masks()
    return fq & gp | fp & gq


def poisson(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """Poisson bracket {f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i).

    Parameters are bracket-inert: only the canonical pairs contribute.
    Computed term by term: a term m1 of f and a term m2 of g give, for each
    pair i, the weight m1[q_i]*m2[p_i] - m1[p_i]*m2[q_i] on the monomial
    m1*m2 / (q_i*p_i).  Only the pairs that both operands touch, q_i in one
    and p_i in the other (``_shared_pairs``, from the masks each keeps in its
    ``_pairs`` slot, see ``PhasePolynomial._pair_masks``), can give a nonzero
    weight: with none the bracket is zero and no term is visited, and
    otherwise only those of them in which m1 has q_i or p_i are visited.
    """
    shared = _shared_pairs(f, g)
    if not shared:
        return _adopt(f.space, {})
    n = f.space.n_dof
    candidates = []
    while shared:
        low = shared & -shared
        candidates.append(low.bit_length() - 1)
        shared ^= low
    accum: dict[Exponents, Fraction] = {}
    get = accum.get
    merged = False
    for m1, c1 in f.terms.items():
        pairs = [i for i in candidates if m1[i] or m1[n + i]]
        for m2, c2 in g.terms.items():
            for i in pairs:
                weight = m1[i] * m2[n + i] - m1[n + i] * m2[i]
                if weight:  # then q_i and p_i both divide m1*m2
                    lowered = list(map(add, m1, m2))
                    lowered[i] -= 1
                    lowered[n + i] -= 1
                    key = tuple(lowered)
                    old = get(key)
                    if old is None:
                        accum[key] = c1 * c2 * weight
                    else:
                        accum[key] = old + c1 * c2 * weight
                        merged = True
    return _adopt(f.space, _nonzero(accum) if merged else accum)
