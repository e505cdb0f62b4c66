"""Edge weighting schemes for meta-blocking.

The standard schemes of Papadakis et al. (EDBT 2016), all supported by the
original SparkER:

* **CBS** (Common Blocks Scheme): number of blocks shared by the two profiles.
* **ECBS** (Enhanced CBS): CBS scaled by the rarity of each profile,
  ``CBS * log(B / B_i) * log(B / B_j)`` with ``B`` the total number of blocks.
* **JS** (Jaccard Scheme): ``CBS / (B_i + B_j - CBS)``.
* **EJS** (Enhanced JS): JS scaled by the rarity of each node's degree,
  ``JS * log(E / degree_i) * log(E / degree_j)`` with ``E`` the number of
  graph edges.
* **ARCS** (Aggregate Reciprocal Comparisons Scheme): sum over shared blocks
  of the reciprocal of the block's comparison cardinality.

With BLAST entropy re-weighting on, each weight is further multiplied by the
mean entropy of the blocks the two profiles share, so edges generated inside
low-entropy attribute clusters (prices, years) are damped before pruning.
Every scheme is evaluated vectorised by
:class:`~repro.metablocking.backends.NumpyKernel`.
"""

from __future__ import annotations

from enum import Enum

from repro.exceptions import MetaBlockingError


class WeightingScheme(str, Enum):
    """Available edge weighting schemes."""

    CBS = "cbs"
    ECBS = "ecbs"
    JS = "js"
    EJS = "ejs"
    ARCS = "arcs"

    @classmethod
    def parse(cls, value: "str | WeightingScheme") -> "WeightingScheme":
        """Parse a scheme name (case insensitive)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError as exc:
            valid = ", ".join(s.value for s in cls)
            raise MetaBlockingError(
                f"unknown weighting scheme {value!r}; valid schemes: {valid}"
            ) from exc
