"""The numerics contract: how closely two computations of one quantity
must agree, in three classes (stated once more in DESIGN §3).

- **A, bitwise.**  The same float operations in the same order: a served
  score against ``ODNET.predict`` on the same tables, the Tensor path
  against the array path, a single-point batch with and without the
  PEC memo, a plan hit against a plan miss, a snapshot round trip.
- **B, within 1e-12 relative.**  The same formula, rounded differently:
  a GEMM over another row count (rows on demand against all-users
  tables, a multi-point memo entry) or over a wider weight (the joint
  head's one stacked projection against the per-expert formula).
- **C, bounded by quality.**  Re-association inside a training kernel:
  after epochs of Adam the bits drift apart, so the per-epoch losses are
  held to a measured bound and the hex pins of
  ``tests/train/test_training_parity.py`` are re-pinned in the change
  that moves them, with the class named beside the pin.

Tests import their tolerances from here; none keeps a private one for a
comparison this contract covers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CLASS_B", "CLASS_C_LOSS", "exact", "assert_class_a",
           "assert_class_b", "assert_class_c_losses"]

#: Class B: the largest difference allowed, relative to the larger of 1
#: and the reference's largest magnitude (for probabilities and scores,
#: which lie in (0, 1), that is 1e-12 absolute).
CLASS_B = 1e-12

#: Class C: per-epoch training losses, relative to the pinned ones.
CLASS_C_LOSS = 1e-6


def exact(value: float) -> str:
    """A float's bits as text (``float.hex``): what class A compares
    when a result is a list of scores rather than an array."""
    return float(value).hex()


def assert_class_a(actual, expected) -> None:
    """Equal element for element."""
    np.testing.assert_array_equal(actual, expected)


def assert_class_b(actual, expected) -> None:
    """Within :data:`CLASS_B` of ``expected``'s scale (see there)."""
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=0.0,
                               atol=CLASS_B * scale)


def assert_class_c_losses(actual, expected) -> None:
    """Per-epoch losses within :data:`CLASS_C_LOSS` relative."""
    np.testing.assert_allclose(actual, expected, rtol=CLASS_C_LOSS)
