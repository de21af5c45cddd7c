"""Index configurations — the bit-address index key map (Section III).

An *index configuration* (IC) assigns each join attribute of a state a number
of bits (possibly zero).  With ``B`` total assigned bits the index has
``2**B`` logical bucket locations; a tuple's bucket id is formed by mapping
each attribute value to a fragment of the configured width and concatenating
the fragments in JAS order (the index computes it with a compiled
:class:`~repro.core.probe_plan.KeyPlan`).  The IC is a blueprint only — it
is never stored with tuples, which is the source of the design's low memory
overhead.

``IndexConfiguration`` is immutable and hashable so configurations can key
caches and be compared by the tuner.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.access_pattern import AccessPattern, JoinAttributeSet
from repro.utils.bitops import mask_to_indices


class IndexConfiguration:
    """Bits-per-join-attribute key map for a bit-address index.

    Parameters
    ----------
    jas:
        The state's join-attribute set (fixes attribute order).
    bits:
        Either a sequence of per-attribute bit widths in JAS order or a
        mapping ``attribute name -> bits`` (unmentioned attributes get 0).
    """

    __slots__ = ("_jas", "_bits", "_total", "_indexed", "_pattern_bits")

    def __init__(self, jas: JoinAttributeSet, bits: Iterable[int] | Mapping[str, int]) -> None:
        if isinstance(bits, Mapping):
            unknown = set(bits) - set(jas.names)
            if unknown:
                raise ValueError(f"bits given for attributes not in JAS: {sorted(unknown)}")
            widths = tuple(int(bits.get(name, 0)) for name in jas.names)
        else:
            widths = tuple(int(b) for b in bits)
            if len(widths) != len(jas):
                raise ValueError(
                    f"expected {len(jas)} bit widths for JAS {list(jas.names)}, got {len(widths)}"
                )
        for name, w in zip(jas.names, widths):
            if w < 0:
                raise ValueError(f"bit width for {name!r} must be >= 0, got {w}")
        self._jas = jas
        self._bits = widths
        self._total = sum(widths)
        self._indexed = tuple(name for name, w in zip(jas.names, widths) if w > 0)
        # mask -> B_ap memo; probes and the scalar cost model ask for the
        # same few patterns over and over.
        self._pattern_bits: dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # views

    @property
    def jas(self) -> JoinAttributeSet:
        """The join-attribute set this configuration maps."""
        return self._jas

    @property
    def bits(self) -> tuple[int, ...]:
        """Per-attribute bit widths in JAS order."""
        return self._bits

    @property
    def total_bits(self) -> int:
        """Total assigned bits ``B`` (the index has ``2**B`` logical buckets)."""
        return self._total

    def bits_for_pattern(self, ap: AccessPattern) -> int:
        """``B_ap`` — total bits assigned to the attributes ``ap`` specifies."""
        self._check_jas(ap)
        mask = ap.mask
        cached = self._pattern_bits.get(mask)
        if cached is None:
            cached = sum(self._bits[i] for i in mask_to_indices(mask))
            self._pattern_bits[mask] = cached
        return cached

    def wildcard_bits(self, ap: AccessPattern) -> int:
        """Bits assigned to attributes *not* in ``ap``.

        A search with pattern ``ap`` must enumerate ``2**wildcard_bits(ap)``
        bucket ids (the wildcard condition of Section III).
        """
        return self._total - self.bits_for_pattern(ap)

    @property
    def indexed_attributes(self) -> tuple[str, ...]:
        """Attributes with at least one bit assigned, in JAS order."""
        return self._indexed

    # ------------------------------------------------------------------ #
    # plumbing

    def _check_jas(self, ap: AccessPattern) -> None:
        if ap.jas is not self._jas and ap.jas != self._jas:
            raise ValueError(f"pattern {ap!r} ranges over a different JAS than this IC")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexConfiguration):
            return NotImplemented
        return self._jas == other._jas and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._jas, self._bits))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}:{w}" for n, w in zip(self._jas.names, self._bits))
        return f"IC({parts} | B={self._total})"


def uniform_configuration(jas: JoinAttributeSet, total_bits: int) -> IndexConfiguration:
    """Spread ``total_bits`` as evenly as possible across all attributes.

    Earlier JAS attributes receive the remainder bits.  A reasonable
    uninformed starting configuration before any statistics exist.
    """
    if total_bits < 0:
        raise ValueError(f"total_bits must be >= 0, got {total_bits}")
    n = len(jas)
    base, rem = divmod(total_bits, n)
    return IndexConfiguration(jas, [base + (1 if i < rem else 0) for i in range(n)])
