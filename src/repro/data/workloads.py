"""The widened workload axis: key dtypes and record shapes beyond uint32.

The paper sorts 31-bit integer keys.  This module widens the workload
matrix along two orthogonal directions:

- **dtype**: 64-bit keys (``u64``, exercised near ``2**64``) and IEEE-754
  double keys (``f64``) via an order-preserving unsigned transform;
- **shape**: key+payload record sorts (``payload``), where a payload
  array is permuted alongside the keys by encoding the original index
  into the low bits of a composite key.

Each named *workload kind* (:data:`WORKLOAD_KINDS`) bundles a generator
for the differential oracle plus the transform the backends apply at the
seam (:func:`repro.backend.base.prepare_workload`).

Float ordering policy
---------------------
The transform is the classic sign-flip bit twiddle: reinterpret the
double as ``uint64``, then XOR with ``0x8000...`` for non-negative
values or ``0xFFFF...`` for negatives.  The resulting unsigned order is
the IEEE total order, which matches ``np.sort``: ``-inf < ... < -0.0 ==
0.0 < ... < +inf < NaN`` (NumPy places all NaNs last).  All NaN payloads
are canonicalized to the positive quiet NaN before transforming so every
NaN maps to the same (largest) code; the inverse transform therefore
returns canonical NaNs, and the oracle compares with
``np.array_equal(..., equal_nan=True)``.  ``-0.0`` and ``0.0`` map to
*different* codes (``-0.0`` sorts first) -- a total order refining
``np.sort``'s, so outputs still compare equal under ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import KEY_DTYPE, MAX_KEY, generate

_SIGN = np.uint64(1 << 63)
_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
#: The canonical positive quiet NaN all NaN inputs are folded onto.
_CANONICAL_NAN = np.uint64(0x7FF8000000000000)


# ----------------------------------------------------------------------
# Order-preserving float <-> uint64 transform
# ----------------------------------------------------------------------
def float_to_sortable_u64(values: np.ndarray) -> np.ndarray:
    """Map float64 values to uint64 codes whose unsigned order is the
    IEEE total order (NaNs canonicalized, sorted last)."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.uint64).copy()
    bits[np.isnan(values)] = _CANONICAL_NAN
    neg = (bits & _SIGN) != 0
    out = np.where(neg, _FULL - bits, bits | _SIGN)
    return out.astype(np.uint64)


def sortable_u64_to_float(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`float_to_sortable_u64` (NaNs come back
    canonical)."""
    codes = np.asarray(codes, dtype=np.uint64)
    neg = (codes & _SIGN) == 0
    bits = np.where(neg, _FULL - codes, codes & ~_SIGN)
    return bits.astype(np.uint64).view(np.float64).copy()


# ----------------------------------------------------------------------
# Key + payload records via composite keys
# ----------------------------------------------------------------------
def encode_records(keys: np.ndarray, key_bits: int) -> tuple[np.ndarray, int]:
    """Pack each key's original index into the low bits of a composite
    key, so sorting the composites is a *stable* sort of the keys that
    carries the permutation along.

    Returns ``(composite, idx_bits)``.  When ``key_bits + idx_bits``
    exceeds 63 (the widest key the simulated sorters carry losslessly
    through int64 arithmetic), the keys are first rank-compressed with
    ``np.unique`` -- at most ``n`` distinct ranks always fit.
    """
    n = len(keys)
    idx_bits = max(1, int(n - 1).bit_length())
    if key_bits + idx_bits > 63:
        ranks = np.unique(keys, return_inverse=True)[1].astype(np.uint64)
        key_bits = max(1, int(ranks.max(initial=0)).bit_length())
        keys = ranks
        if key_bits + idx_bits > 63:  # pragma: no cover - needs n > 2**31
            raise ValueError("record sort input too large to encode")
    comp = (
        np.asarray(keys, dtype=np.uint64) << np.uint64(idx_bits)
    ) | np.arange(n, dtype=np.uint64)
    return comp.astype(np.int64), idx_bits


def decode_records(composite: np.ndarray, idx_bits: int) -> np.ndarray:
    """Recover the permutation a sorted composite array encodes."""
    comp = np.asarray(composite, dtype=np.uint64)
    return (comp & np.uint64((1 << idx_bits) - 1)).astype(np.int64)


# ----------------------------------------------------------------------
# Workload kinds (the oracle's workload axis)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """One generated workload cell: keys plus an optional payload."""

    kind: str
    keys: np.ndarray
    payload: np.ndarray | None = None


def _u32(n: int, p: int, seed: int, distribution: str) -> Workload:
    return Workload("u32", generate(distribution, n, p, seed=seed))


def _u64(n: int, p: int, seed: int, distribution: str) -> Workload:
    """Uniform 64-bit keys with the top half forced near ``2**64`` --
    exercising the full key width, not just the comfortable bottom."""
    del distribution
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
    high = rng.random(n) < 0.5
    keys[high] |= np.uint64(1 << 63)
    keys[: min(4, n)] = np.uint64(0xFFFFFFFFFFFFFFFF) - np.arange(
        min(4, n), dtype=np.uint64
    )
    return Workload("u64", keys)


def _f64(n: int, p: int, seed: int, distribution: str) -> Workload:
    """Doubles spanning signs and magnitudes, with -0.0/0.0/inf/NaN
    sprinkled in (the ordering-policy corners)."""
    del distribution
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, size=n))
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    take = min(n, 5 * max(1, n // 64))
    keys[rng.integers(0, n, size=take)] = rng.choice(specials, size=take)
    return Workload("f64", keys)


def _payload(n: int, p: int, seed: int, distribution: str) -> Workload:
    """Record sort: uint32-range keys (with duplicates, so stability is
    observable) plus a distinct payload per record."""
    keys = generate(distribution, n, p, seed=seed) % KEY_DTYPE(MAX_KEY // 8)
    payload = np.arange(n, dtype=np.int64) * 7 + 3
    return Workload("payload", keys, payload)


def _dupheavy(n: int, p: int, seed: int, distribution: str) -> Workload:
    del distribution
    return Workload("dupheavy", generate("dupheavy", n, p, seed=seed))


def _antisample(n: int, p: int, seed: int, distribution: str) -> Workload:
    del distribution
    return Workload("antisample", generate("antisample", n, p, seed=seed))


#: Registry: workload kind -> builder(n, p, seed, distribution).
WORKLOAD_KINDS = {
    "u32": _u32,
    "u64": _u64,
    "f64": _f64,
    "payload": _payload,
    "dupheavy": _dupheavy,
    "antisample": _antisample,
}

#: Kinds beyond the paper's uint32 keys (the widened matrix).
NEW_WORKLOAD_KINDS = tuple(k for k in WORKLOAD_KINDS if k != "u32")


def make_workload(
    kind: str, n: int, p: int, seed: int = 1, distribution: str = "gauss"
) -> Workload:
    """Generate one workload cell by kind name."""
    try:
        builder = WORKLOAD_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown workload kind {kind!r}; choose from "
            f"{sorted(WORKLOAD_KINDS)}"
        ) from None
    return builder(n, p, seed, distribution)


def reference_sort(workload: Workload) -> Workload:
    """The NumPy oracle for one workload: ``np.sort`` for keys-only,
    stable ``np.argsort`` for records (payload follows key)."""
    if workload.payload is None:
        keys = workload.keys
        if np.issubdtype(keys.dtype, np.floating):
            # Canonicalize NaNs the way the transform does, so outputs
            # compare bit-equal under equal_nan.
            keys = keys.copy()
            keys[np.isnan(keys)] = np.nan
        return Workload(workload.kind, np.sort(keys))
    order = np.argsort(workload.keys, kind="stable")
    return Workload(
        workload.kind, workload.keys[order], workload.payload[order]
    )


def workloads_equal(a: Workload, b: Workload) -> bool:
    """Oracle comparison: exact equality, NaN == NaN for float keys."""
    if np.issubdtype(a.keys.dtype, np.floating):
        keys_ok = np.array_equal(a.keys, b.keys, equal_nan=True)
    else:
        keys_ok = np.array_equal(a.keys, b.keys)
    if not keys_ok:
        return False
    if (a.payload is None) != (b.payload is None):
        return False
    if a.payload is not None:
        return np.array_equal(a.payload, b.payload)
    return True


__all__ = [
    "NEW_WORKLOAD_KINDS",
    "WORKLOAD_KINDS",
    "Workload",
    "decode_records",
    "encode_records",
    "float_to_sortable_u64",
    "make_workload",
    "reference_sort",
    "sortable_u64_to_float",
    "workloads_equal",
]
