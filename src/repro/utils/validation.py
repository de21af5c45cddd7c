"""Small argument-validation helpers with consistent error messages."""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def check_fraction(name: str, value: float, *, inclusive_low: bool = True, inclusive_high: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1] (bounds optional)."""
    low_ok = value >= 0 if inclusive_low else value > 0
    high_ok = value <= 1 if inclusive_high else value < 1
    if not (low_ok and high_ok):
        lo = "[" if inclusive_low else "("
        hi = "]" if inclusive_high else ")"
        raise ValueError(f"{name} must be in {lo}0, 1{hi}, got {value!r}")
