"""Problem definitions for the two-stage tour search.

Cities are labelled 1..n.  A tour visits every city exactly once and is
encoded as a bitstring by writing each visited city as a fixed-width
big-endian binary code (k = ceil(log2 n) bits per city, city c encoded
as c - 1) and concatenating the codes in visit order.  Codes >= n never
correspond to a city and make a bitstring infeasible, as do repeated
codes.

This module also houses the cost-phase datasets used by the search: a
bundled dataset for n = 3 and 4 with extremes pinned at pi/2 and 3*pi/2,
and a seeded Gaussian generator for arbitrary n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

# Enumerating n! tours is deliberately capped; beyond this the subspace
# sizes stop being desk-scale.
MAX_ENUM_CITIES = 6

PHASE_MIN = math.pi / 2
PHASE_MAX = 3 * math.pi / 2
# Least Gaussian mass inside (PHASE_MIN, PHASE_MAX) that `gen_gaussian_phases` accepts.
MIN_INTERIOR_MASS = 1e-3
# Most normal draws `gen_gaussian_phases` makes in one batch (512 KiB of float64).
_MAX_BATCH = 1 << 16


class CapacityError(ValueError):
    """A size parameter exceeds what this implementation supports."""


class DatasetError(ValueError):
    """A phase dataset is unavailable or malformed."""


_RANGE_ERROR = "phases must lie in the open interval (0, 2*pi)"


def bits_per_city(n: int) -> int:
    """Number of bits used to encode one city label (ceil(log2 n))."""
    if n < 2:
        raise CapacityError(f"need at least 2 cities, got {n}")
    return max(1, (n - 1).bit_length())


@dataclass(frozen=True)
class TspInstance:
    """An n-city problem with an optional travel-cost matrix.

    ``cost_matrix[i][j]`` is the cost of travelling from city i+1 to
    city j+1.  The matrix need not be symmetric; the diagonal must be
    zero and all entries non-negative.
    """

    n: int
    cost_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 2:
            raise CapacityError(f"need at least 2 cities, got {self.n}")
        if self.cost_matrix is not None:
            m = np.asarray(self.cost_matrix, dtype=float)
            if m.shape != (self.n, self.n):
                raise ValueError(f"cost matrix must be {self.n}x{self.n}, got {m.shape}")
            if np.any(np.diag(m) != 0.0):
                raise ValueError("cost matrix diagonal must be zero")
            if np.any(m < 0.0):
                raise ValueError("cost matrix entries must be non-negative")
            object.__setattr__(self, "cost_matrix", m)


@dataclass(frozen=True)
class Tour:
    """A visit order: a permutation of the city labels 1..n."""

    order: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "order", tuple(int(c) for c in self.order))
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.order}")

    @property
    def n(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class HoboLayout:
    """Register plan for the binary tour encoding of an n-city problem.

    Qubit indices run: main register (n*k city bits), then one validity
    ancilla per (slot, out-of-range code) pair, then one ancilla per
    slot pair for the uniqueness check, then a single marker qubit.
    Qubit 0 is the leftmost (most significant) bit of a bitstring.
    """

    n: int
    k: int
    main_qubits: int
    valid_ancillas: int
    unique_ancillas: int
    marker_qubits: int
    width: int

    @classmethod
    def for_cities(cls, n: int) -> HoboLayout:
        k = bits_per_city(n)
        main = n * k
        valid = (2**k - n) * n
        unique = n * (n - 1) // 2
        return cls(
            n=n,
            k=k,
            main_qubits=main,
            valid_ancillas=valid,
            unique_ancillas=unique,
            marker_qubits=1,
            width=main + valid + unique + 1,
        )

    def main_qubit(self, slot: int, bit: int) -> int:
        """Qubit holding bit `bit` (0 = most significant) of visit slot `slot`."""
        return slot * self.k + bit

    def slot_qubits(self, slot: int) -> tuple[int, ...]:
        return tuple(range(slot * self.k, (slot + 1) * self.k))

    def validity_ancilla(self, slot: int, code: int) -> int:
        """Ancilla flagging that `slot` holds the out-of-range code `code`."""
        if not self.n <= code < 2**self.k:
            raise ValueError(f"code {code} is not an out-of-range code for n={self.n}")
        per_slot = 2**self.k - self.n
        return self.main_qubits + slot * per_slot + (code - self.n)

    def pair_ancilla(self, slot_a: int, slot_b: int) -> int:
        """Ancilla recording that slots a < b hold different city codes."""
        if not 0 <= slot_a < slot_b < self.n:
            raise ValueError(f"need 0 <= a < b < n, got ({slot_a}, {slot_b})")
        before = slot_a * (self.n - 1) - slot_a * (slot_a - 1) // 2
        return self.main_qubits + self.valid_ancillas + before + (slot_b - slot_a - 1)

    @property
    def marker(self) -> int:
        return self.width - 1


@dataclass(frozen=True)
class PhaseAssignment:
    """A cost phase in radians for every feasible tour bitstring of n.

    Keys are exactly the n! feasible bitstrings; all values lie in the
    open interval (0, 2*pi) and the minimum and maximum are unique, so
    the best and worst tours are well defined.

    Validation reads the values once, in enumeration order, into
    ``angles``: a read-only float64 array in the key order of
    ``phases``.  ``min_index`` and ``max_index`` are the positions of
    the extremes in it.  None of the three is a dataclass field, so
    ``==`` and ``repr`` see only ``n`` and ``phases``.
    """

    n: int
    phases: dict[str, float]

    def __post_init__(self):
        feasible = enumerate_feasible(self.n)
        if self.phases.keys() != _feasible_set(self.n):
            raise DatasetError(
                f"phase keys must be exactly the {len(feasible)} feasible bitstrings of n={self.n}"
            )
        values = list(map(self.phases.__getitem__, feasible))
        try:
            angles = np.array(values)
        except ValueError:  # sequences of differing lengths
            angles = None
        if angles is None or angles.ndim != 1 or angles.dtype.kind not in "biuf":
            # Not one real number per tour: None, str, complex, a sequence or an
            # int beyond 64 bits.  Python's comparisons decide, in the given
            # order: TypeError for an unordered value, DatasetError for one
            # out of range (so an int beyond the float range is a data error).
            if not all(0.0 < v < 2 * math.pi for v in self.phases.values()):
                raise DatasetError(_RANGE_ERROR)
            angles = np.array([float(v) for v in values])
        angles = angles.astype(float, copy=False)
        floats = angles.tolist()
        low, high = int(angles.argmin()), int(angles.argmax())
        # argmin and argmax stop at a NaN, which fails the range check.
        if not (0.0 < floats[low] and floats[high] < 2 * math.pi):
            raise DatasetError(_RANGE_ERROR)
        # A unique extreme is found at the same position from either end.
        backwards, last = angles[::-1], len(floats) - 1
        if last - int(backwards.argmin()) != low or last - int(backwards.argmax()) != high:
            raise DatasetError("phase minimum and maximum must each be unique")
        angles.flags.writeable = False
        # Canonical key order (lexicographic = enumeration order).
        object.__setattr__(self, "phases", dict(zip(feasible, floats)))
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "min_index", low)
        object.__setattr__(self, "max_index", high)

    @property
    def min_key(self) -> str:
        return enumerate_feasible(self.n)[self.min_index]

    @property
    def max_key(self) -> str:
        return enumerate_feasible(self.n)[self.max_index]


@dataclass(frozen=True)
class Schedule:
    """Iteration counts for the two search stages."""

    q1: int
    q2: int

    def __post_init__(self):
        if self.q1 < 0 or self.q2 < 0:
            raise ValueError(f"iteration counts must be non-negative: {self}")


def encode_tour(tour: Tour | Sequence[int], n: int) -> str:
    """Encode a visit order as a bitstring of length n*k."""
    order = tour.order if isinstance(tour, Tour) else Tour(tuple(tour)).order
    if len(order) != n:
        raise ValueError(f"tour visits {len(order)} cities, expected {n}")
    k = bits_per_city(n)
    return "".join(format(c - 1, f"0{k}b") for c in order)


def decode_bitstring(bits: str, n: int) -> Tour | None:
    """Decode a bitstring back to a tour, or None if it is infeasible.

    Infeasible means some k-bit code is >= n or two slots hold the same
    code.  A wrong-length input raises instead.
    """
    k = bits_per_city(n)
    if len(bits) != n * k:
        raise ValueError(f"expected {n * k} bits for n={n}, got {len(bits)}")
    codes = [int(bits[i * k : (i + 1) * k], 2) for i in range(n)]
    if any(c >= n for c in codes) or len(set(codes)) != n:
        return None
    return Tour(tuple(c + 1 for c in codes))


@lru_cache(maxsize=None)
def enumerate_feasible(n: int) -> tuple[str, ...]:
    """All n! feasible tour bitstrings in lexicographic order."""
    if not 2 <= n <= MAX_ENUM_CITIES:
        raise CapacityError(f"feasible enumeration supports 2 <= n <= {MAX_ENUM_CITIES}")
    # Each city's k-bit code, joined in every order: encode_tour without a Tour per permutation.
    k = bits_per_city(n)
    codes = [format(c, f"0{k}b") for c in range(n)]
    return tuple(map("".join, permutations(codes)))


@lru_cache(maxsize=None)
def _feasible_set(n: int) -> frozenset[str]:
    return frozenset(enumerate_feasible(n))


def eval_tour_cost(instance: TspInstance, tour: Tour | Sequence[int]) -> float:
    """Total cost of the closed tour, including the leg back to the start."""
    if instance.cost_matrix is None:
        raise ValueError("instance has no cost matrix")
    order = tour.order if isinstance(tour, Tour) else Tour(tuple(tour)).order
    m = instance.cost_matrix
    total = 0.0
    for s in range(len(order)):
        a = order[s] - 1
        b = order[(s + 1) % len(order)] - 1
        total += m[a, b]
    return float(total)


def constraint_penalties(assignment) -> tuple[float, float]:
    """One-hot constraint penalties (rows, columns) of a binary matrix.

    The first value penalises visit slots not holding exactly one city,
    the second penalises cities not visited exactly once; both are zero
    iff the matrix is a permutation matrix.
    """
    x = np.asarray(assignment, dtype=float)
    h1 = float(np.sum((1.0 - x.sum(axis=1)) ** 2))
    h2 = float(np.sum((1.0 - x.sum(axis=0)) ** 2))
    return h1, h2


def optimal_q1(n: int) -> int:
    """First-stage iteration count: floor((pi/4) * sqrt(2**(n*k) / n!))."""
    k = bits_per_city(n)
    return math.floor(math.pi / 4 * math.sqrt(2 ** (n * k) / math.factorial(n)))


def optimal_q2(n: int, m: int) -> int:
    """Second-stage iteration count: floor((pi/4) * sqrt(n! / m)).

    `m` is the number of simultaneously amplified tours; the cost-phase
    search amplifies both extremes, so m = 2 is the usual choice.
    """
    if n < 2:
        raise CapacityError(f"need at least 2 cities, got {n}")
    if m < 1:
        raise ValueError(f"need at least one amplified tour, got m={m}")
    return math.floor(math.pi / 4 * math.sqrt(math.factorial(n) / m))


# --------------------------------------------------------------------------
# Phase datasets
# --------------------------------------------------------------------------

# Bundled cost-phase datasets for 3- and 4-city problems.  The extreme
# tours (identity order and its reversal) are pinned to exactly pi/2 and
# 3*pi/2.  Every other value is a draw from a seeded per-entry Gaussian
# stream, so the full-precision dataset is reproducible rather than
# hand-invented: TestBuiltinPhases in tests/test_core.py redraws each
# entry from its 3-decimal prefix
# (test_stored_values_regenerate_from_seeded_streams).
_BUILTIN_VALUES = {
    3: {
        "000110": PHASE_MIN,
        "001001": 2.9612768897401454,
        "010010": 3.685044053544289,
        "011000": 2.9312350463193004,
        "100001": 3.501201821013711,
        "100100": PHASE_MAX,
    },
    4: {
        "00011011": PHASE_MIN,
        "00011110": 2.9618670689252276,
        "00100111": 3.6853798357675607,
        "00101101": 2.931406571639427,
        "00110110": 3.5015160966461085,
        "00111001": 3.3514885961552756,
        "01001011": 2.7988614336641633,
        "01001110": 4.169966984324977,
        "01100011": 3.3046245337404674,
        "01101100": 2.9893716358693125,
        "01110010": 3.372767066346309,
        "01111000": 2.71994243381181,
        "10000111": 3.5844184274827025,
        "10001101": 3.14823575813525,
        "10010011": 3.194290659605724,
        "10011100": 2.8713388915398386,
        "10110001": 2.7966420395577494,
        "10110100": 2.673234878900164,
        "11000110": 2.8327729753380666,
        "11001001": 3.2171947859364343,
        "11010010": 2.6911841419595763,
        "11011000": 3.5482107394342233,
        "11100001": 3.290385061045502,
        "11100100": PHASE_MAX,
    },
}


def builtin_phases(n: int) -> PhaseAssignment:
    """The bundled cost-phase dataset (available for n = 3 and 4)."""
    if n not in _BUILTIN_VALUES:
        raise DatasetError(f"no bundled phase dataset for n={n}; available: 3, 4")
    return PhaseAssignment(n, dict(_BUILTIN_VALUES[n]))


def gen_gaussian_phases(n: int, mu: float, sigma: float, seed: int) -> PhaseAssignment:
    """Generate a phase dataset with Gaussian-distributed interior costs.

    The identity tour is pinned to pi/2 and the reversed tour to
    3*pi/2; every other tour, in enumeration order, takes the next
    i.i.d. draw from N(mu, sigma**2) that lies inside the open interval
    (pi/2, 3*pi/2), so the pinned extremes stay unique.  Draws are
    taken in batches; numpy's `Generator` yields the same values in a
    batch as in one call per draw, so the dataset is the one the
    draw-by-draw rejection loop gives.  Deterministic for a given seed.
    Raises `DatasetError` when less than `MIN_INTERIOR_MASS` of
    N(mu, sigma**2) lies inside the interval, which keeps the expected
    draws per tour at most 1/MIN_INTERIOR_MASS.
    """
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu}")
    scale = sigma * math.sqrt(2.0)
    mass = 0.5 * (math.erf((PHASE_MAX - mu) / scale) - math.erf((PHASE_MIN - mu) / scale))
    if mass < MIN_INTERIOR_MASS:
        raise DatasetError(
            f"N({mu}, {sigma}**2) puts {mass:.2e} of its mass inside (pi/2, 3*pi/2), "
            f"below {MIN_INTERIOR_MASS}; move mu toward pi"
        )
    keys = enumerate_feasible(n)
    rng = np.random.default_rng(seed)
    need = len(keys) - 2
    interior: list[float] = []
    while len(interior) < need:
        # Enough draws for the missing tours on average, capped to bound memory.
        size = min(math.ceil((need - len(interior)) / mass) + 16, _MAX_BATCH)
        draws = rng.normal(mu, sigma, size=size)
        interior += draws[(draws > PHASE_MIN) & (draws < PHASE_MAX)].tolist()
    # The enumeration is lexicographic: the identity tour comes first, the reversed tour last.
    return PhaseAssignment(n, dict(zip(keys, [PHASE_MIN, *interior[:need], PHASE_MAX])))


def phases_to_json(phases: PhaseAssignment) -> str:
    """Serialize a phase dataset as one line of JSON with sorted keys.

    Without an indent `json` uses its C encoder.  Only whitespace
    differs from the indented layout earlier versions wrote,
    which `phases_from_json` still reads.  ``python -m json.tool``
    pretty-prints the text.
    """
    payload = {"n": phases.n, "phases": phases.phases}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def phases_from_json(text: str) -> PhaseAssignment:
    """Parse a phase dataset from JSON text produced by phases_to_json.

    `n` must be a JSON integer and `phases` an object of JSON numbers;
    anything else raises `DatasetError`.
    """
    try:
        payload = json.loads(text)
        n, raw = payload["n"], payload["phases"]
        if type(n) is not int or type(raw) is not dict or not {type(v) for v in raw.values()} <= {int, float}:
            raise TypeError("n must be an integer and phases an object of numbers")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        # ValueError: malformed JSON, or an integer past Python's digit limit.
        raise DatasetError(f"malformed phase dataset: {exc}") from exc
    # `PhaseAssignment` converts the numbers; an int beyond the float range fails its range check.
    return PhaseAssignment(n, raw)


def save_phases(phases: PhaseAssignment, path) -> str:
    """Write a phase dataset as `phases_to_json` text; returns that text."""
    text = phases_to_json(phases)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def read_phases_text(path) -> str:
    """A phase dataset file's text; raises `DatasetError` unless it is UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DatasetError(f"phase dataset is not UTF-8 text: {exc}") from exc


def load_phases(path) -> PhaseAssignment:
    """Read a phase dataset; raises `DatasetError` unless it is UTF-8 JSON."""
    return phases_from_json(read_phases_text(path))
