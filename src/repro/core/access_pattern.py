"""Access patterns over a state's join-attribute set (Section II, IV-C1).

A *join attribute set* (JAS) is the ordered tuple of attributes of a state
that appear in at least one join predicate of the query.  An *access pattern*
(ap) is the subset of JAS attributes a search request specifies; the paper
writes it as a vector like ``<A1, *, A3>`` and maps it to a binary
representation ``BR(ap)`` where bit *i* is 1 iff attribute *i* is used.

We represent an access pattern as an immutable (JAS, bitmask) pair.  The
bitmask *is* ``BR(ap)``, giving O(1) direct addressing into assessment tables
exactly as the paper describes.  Internally bit ``i`` corresponds to the
``i``-th JAS attribute; the paper's examples read the string with the first
attribute leftmost (``BR(<A,*,*>) = "100"`` = 4 over ``(A, B, C)``), which is
what :meth:`AccessPattern.br_string` / :meth:`AccessPattern.br_number`
render.

``ap1.provides_search_benefit_to(ap2)`` implements Definition 1:
``ap1 ≺ ap2`` iff every attribute of ap1 is also in ap2 — an index built on
ap1's attributes narrows a search using ap2.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import total_ordering

from repro.utils.bitops import bit_count, iter_submasks, iter_supermasks, mask_to_indices

WILDCARD = "*"


@total_ordering
class JoinAttributeSet:
    """The ordered set of join attributes of one state.

    Attribute order is significant: it fixes bit positions in ``BR(ap)`` and
    segment order in bucket ids.  Names must be unique non-empty strings.
    """

    __slots__ = ("_names", "_positions")

    def __init__(self, names: Iterable[str]) -> None:
        names = tuple(names)
        if not names:
            raise ValueError("a join attribute set needs at least one attribute")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate join attribute names: {names}")
        for n in names:
            if not isinstance(n, str) or not n:
                raise ValueError(f"attribute names must be non-empty strings, got {n!r}")
            if n == WILDCARD:
                raise ValueError(f"attribute name {WILDCARD!r} is reserved for wildcards")
        self._names = names
        self._positions = {name: i for i, name in enumerate(names)}

    @property
    def names(self) -> tuple[str, ...]:
        """Attribute names in bit-position order."""
        return self._names

    def position(self, name: str) -> int:
        """Bit position of attribute ``name``."""
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"attribute {name!r} not in JAS {self._names}") from None

    @property
    def full_mask(self) -> int:
        """Bitmask with every attribute set."""
        return (1 << len(self._names)) - 1

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._positions

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinAttributeSet):
            return NotImplemented
        return self._names == other._names

    def __lt__(self, other: "JoinAttributeSet") -> bool:
        return self._names < other._names

    def __hash__(self) -> int:
        return hash(self._names)

    def __repr__(self) -> str:
        return f"JoinAttributeSet({list(self._names)!r})"


@total_ordering
class AccessPattern:
    """A combination of JAS attributes used to specify a search.

    Construct with :meth:`from_attributes`, :meth:`from_mask`, or
    :meth:`full_scan`.  Instances are immutable, hashable, and totally
    ordered (by JAS then mask) so they can key dicts and sort stably.
    """

    __slots__ = ("_jas", "_mask")

    def __init__(self, jas: JoinAttributeSet, mask: int) -> None:
        if not isinstance(jas, JoinAttributeSet):
            raise TypeError(f"jas must be a JoinAttributeSet, got {type(jas).__name__}")
        if mask < 0 or mask > jas.full_mask:
            raise ValueError(f"mask {mask:#b} out of range for {len(jas)}-attribute JAS")
        self._jas = jas
        self._mask = mask

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def from_attributes(cls, jas: JoinAttributeSet, attributes: Iterable[str]) -> "AccessPattern":
        """Pattern using exactly the given attribute names."""
        mask = 0
        for name in attributes:
            mask |= 1 << jas.position(name)
        return cls(jas, mask)

    @classmethod
    def from_mask(cls, jas: JoinAttributeSet, mask: int) -> "AccessPattern":
        """Pattern from a raw ``BR(ap)`` bitmask."""
        return cls(jas, mask)

    @classmethod
    def full_scan(cls, jas: JoinAttributeSet) -> "AccessPattern":
        """The pattern ``<*,...,*>`` using no join attributes."""
        return cls(jas, 0)

    @classmethod
    def all_attributes(cls, jas: JoinAttributeSet) -> "AccessPattern":
        """The pattern using every join attribute."""
        return cls(jas, jas.full_mask)

    # ------------------------------------------------------------------ #
    # views

    @property
    def jas(self) -> JoinAttributeSet:
        """The join-attribute set this pattern ranges over."""
        return self._jas

    @property
    def mask(self) -> int:
        """The ``BR(ap)`` bitmask (bit i == attribute i used)."""
        return self._mask

    @property
    def attributes(self) -> tuple[str, ...]:
        """Names of the attributes the pattern searches on, in JAS order."""
        return tuple(self._jas.names[i] for i in mask_to_indices(self._mask))

    @property
    def n_attributes(self) -> int:
        """Number of attributes specified (``N_A,ap`` in Table I)."""
        return bit_count(self._mask)

    @property
    def is_full_scan(self) -> bool:
        """True when no attribute is specified."""
        return self._mask == 0

    def uses(self, name: str) -> bool:
        """True when attribute ``name`` is part of the pattern."""
        return bool(self._mask >> self._jas.position(name) & 1)

    def vector(self) -> tuple[str, ...]:
        """The paper's vector notation: attribute name or ``*`` per slot."""
        return tuple(
            name if (self._mask >> i) & 1 else WILDCARD for i, name in enumerate(self._jas.names)
        )

    def br_string(self) -> str:
        """``BR(ap)`` as a bit string, first attribute leftmost.

        Matches the paper's convention: over JAS (A, B, C), ``<A,*,*>``
        renders as ``"100"`` (= 4) and ``<*,B,C>`` as ``"011"`` (= 3).
        Note the *internal* ``mask`` stores attribute i at bit i (so
        ``<A,*,*>.mask == 1``); ``br_number`` gives the paper's numbering.
        """
        return "".join("1" if (self._mask >> i) & 1 else "0" for i in range(len(self._jas)))

    def br_number(self) -> int:
        """``BR(ap)`` read as the paper reads it (first attribute = MSB)."""
        return int(self.br_string(), 2) if self._mask else 0

    # ------------------------------------------------------------------ #
    # the search-benefit relation (Definition 1) and lattice structure

    def provides_search_benefit_to(self, other: "AccessPattern") -> bool:
        """Definition 1: ``self ≺ other`` — every attribute of self is in other.

        An index keyed on ``self``'s attributes narrows searches that use
        ``other``.  Reflexive (``ap ≺ ap`` holds).
        """
        self._check_same_jas(other)
        return self._mask & other._mask == self._mask

    def is_proper_generalization_of(self, other: "AccessPattern") -> bool:
        """Strict form of the search-benefit relation (``self ≺ other``, ``self != other``)."""
        return self.provides_search_benefit_to(other) and self._mask != other._mask

    def parents(self) -> tuple["AccessPattern", ...]:
        """Patterns one lattice level *up* (one attribute removed).

        The lattice top is the full-scan pattern; parents of the top are
        empty.  These are the candidates CDIA combines an evicted leaf into.
        """
        return tuple(
            AccessPattern(self._jas, self._mask & ~(1 << i)) for i in mask_to_indices(self._mask)
        )

    def children(self) -> tuple["AccessPattern", ...]:
        """Patterns one lattice level *down* (one attribute added)."""
        out = []
        for i in range(len(self._jas)):
            if not (self._mask >> i) & 1:
                out.append(AccessPattern(self._jas, self._mask | (1 << i)))
        return tuple(out)

    def generalizations(self, *, proper: bool = False) -> Iterator["AccessPattern"]:
        """All patterns that provide a search benefit to self (submasks)."""
        for sub in iter_submasks(self._mask, proper=proper):
            yield AccessPattern(self._jas, sub)

    def specializations(self, *, proper: bool = False) -> Iterator["AccessPattern"]:
        """All patterns self provides a search benefit to (supermasks)."""
        for sup in iter_supermasks(self._mask, self._jas.full_mask, proper=proper):
            yield AccessPattern(self._jas, sup)

    def level(self) -> int:
        """Lattice depth: number of attributes (top ``<*,..,*>`` is level 0)."""
        return bit_count(self._mask)

    # ------------------------------------------------------------------ #
    # plumbing

    def _check_same_jas(self, other: "AccessPattern") -> None:
        if self._jas is not other._jas and self._jas != other._jas:
            raise ValueError(
                f"access patterns range over different JAS: {self._jas!r} vs {other._jas!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AccessPattern):
            return NotImplemented
        return self._jas == other._jas and self._mask == other._mask

    def __lt__(self, other: "AccessPattern") -> bool:
        if not isinstance(other, AccessPattern):
            return NotImplemented
        return (self._jas, self._mask) < (other._jas, other._mask)

    def __hash__(self) -> int:
        return hash((self._jas, self._mask))

    def __repr__(self) -> str:
        return f"<{', '.join(self.vector())}>"


def all_access_patterns(jas: JoinAttributeSet, *, include_full_scan: bool = True) -> list[AccessPattern]:
    """Every possible access pattern over ``jas``.

    ``2**len(jas)`` patterns with the full scan, ``2**len(jas) - 1`` without
    (the paper's "7 possible access patterns" for 3 join attributes counts
    the non-empty combinations).
    """
    start = 0 if include_full_scan else 1
    return [AccessPattern(jas, m) for m in range(start, jas.full_mask + 1)]
