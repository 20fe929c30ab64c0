"""Instance generators, the function library, and seeded verification campaigns.

Every campaign is deterministic given its config: per-instance RNG streams
are split from the seed by index, so execution order cannot change a report.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import verdict
from .abelian import AbelianTuple, Cube, CubeFunction, uniform_cube
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerance,
    diagonal,
    eig_hermitian,
)
from .majorization import check_corollary, check_thm5, check_thm6, kyfan_check
from .means import check_lowner_heinz, check_root_product_chain, check_trace_power_monotone
from .pinching import (
    ColumnField,
    TupleField,
    check_jensen_expectation,
    check_mond_pecaric,
    check_phi_jensen_field,
    check_phi_monotone_chain,
    reproduce_example1,
)
from .state import DiagonalState
from .verdict import Verdict

SCHEMA_VERSION = 1

LH_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


class ConfigError(ValueError):
    """Campaign configuration rejected before any instance ran."""


class GenerationError(RuntimeError):
    """An instance generator could not certify its construction.

    No built-in generator raises it: each certifies its construction by design.
    It stays because ``perfbench/worker.py`` counts it as an instance error.
    """


@dataclass(frozen=True)
class CampaignConfig:
    theorem: str
    count: int
    dim_range: tuple[int, int] = (2, 6)
    arity_range: tuple[int, int] = (1, 3)
    seed: int = 0
    tol: Tolerance = field(default=DEFAULT_TOL, compare=False)
    functions: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.theorem not in THEOREM_IDS:
            raise ConfigError(f"unknown theorem {self.theorem!r}; expected one of {THEOREM_IDS}")
        if self.count < 1:
            raise ConfigError(f"instance count must be >= 1, got {self.count}")
        for name, (lo, hi) in (("dim", self.dim_range), ("arity", self.arity_range)):
            if lo < 1 or hi < lo:
                raise ConfigError(f"empty {name} range {lo}..{hi}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.functions is not None:
            if _THEOREMS[self.theorem].picks is None:
                raise ConfigError(f"{self.theorem} picks no library function, so it takes no list")
            # neither the flags nor the library depend on the arity
            picks = [f.name for f in _pickable(self.theorem, _function_cube(self.theorem, 1))]
            never = [name for name in self.functions if name not in picks]
            if never or not self.functions:  # a misspelt name too
                raise ConfigError(f"{self.theorem} cannot pick {never}; it picks some of {picks}")

    def as_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "count": self.count,
            "dim_range": list(self.dim_range),
            "arity_range": list(self.arity_range),
            "seed": self.seed,
            "rtol": self.tol.rtol,
            "functions": list(self.functions) if self.functions is not None else None,
        }


def instance_rng(seed: int, index: int) -> np.random.Generator:
    """Per-index RNG stream split from the campaign seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_frame(dim: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal m-by-k frame (``k <= m``): the Q factor of a Gaussian draw.

    Householder QR gives an orthonormal Q for any draw, however ill-conditioned.
    """
    z = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    return np.linalg.qr(z)[0]


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def _spectral_members(rng, q: np.ndarray, intervals) -> tuple[HermitianMatrix, ...]:
    """Members diagonal in the basis ``q``, eigenvalues uniform per interval."""
    return tuple(
        HermitianMatrix((q * rng.uniform(lo, hi, len(q))) @ q.conj().T) for lo, hi in intervals
    )


def _diag_members(rng, dim: int, intervals) -> tuple[HermitianMatrix, ...]:
    """Diagonal members, entries uniform per interval."""
    return tuple(diagonal(rng.uniform(lo, hi, dim)) for lo, hi in intervals)


def gen_abelian_tuple(dim: int, cube: Cube, seed) -> AbelianTuple:
    """Commuting tuple sharing one random eigenbasis, eigenvalues uniform per interval."""
    rng = np.random.default_rng(seed)
    return AbelianTuple(_spectral_members(rng, random_unitary(dim, rng), cube.intervals))


def _dominated_members(dim: int, cube: Cube, rng) -> tuple[tuple[HermitianMatrix, ...], ...]:
    """Members of a memberwise-ordered pair, x's then y's (see :func:`gen_dominated_pair`)."""
    if any(hi <= lo for lo, hi in cube.intervals):
        raise ValueError("cube needs headroom in every interval")
    lower = [(lo, lo + 0.3 * (hi - lo)) for lo, hi in cube.intervals]
    upper = [(lo + 0.4 * (hi - lo), hi) for lo, hi in cube.intervals]
    return tuple(_spectral_members(rng, random_unitary(dim, rng), ivs) for ivs in (lower, upper))


def gen_dominated_pair(dim: int, cube: Cube, seed) -> tuple[AbelianTuple, AbelianTuple]:
    """Memberwise-ordered pair of abelian tuples with independent eigenbases.

    x eigenvalues live in the lower 30% of each interval and y eigenvalues in
    the upper 60%, so ``y_i - x_i >= 0.1 (hi - lo) I`` holds by range
    separation while the two tuples generically fail to commute with each
    other.  Checks that consume the pair keep their own order guard.
    """
    return tuple(map(AbelianTuple, _dominated_members(dim, cube, np.random.default_rng(seed))))


def gen_centralizer_pair(
    cube: Cube, rho_blocks: Sequence[int], seed
) -> tuple[AbelianTuple, AbelianTuple, DiagonalState]:
    """Ordered pair of abelian tuples commuting exactly with a block-constant state.

    The state is diagonal and constant on each block of the partition, and
    the block sizes add up to the dimension; both tuples are block-diagonal
    for that partition (so the commutators with the state vanish
    identically), and within each block they are a dominated pair on the cube.
    """
    rng = np.random.default_rng(seed)
    blocks = tuple(int(b) for b in rho_blocks)
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError(f"blocks {blocks} are not a partition")
    dim, n = sum(blocks), cube.arity
    xs = [np.zeros((dim, dim), dtype=complex) for _ in range(n)]
    ys = [np.zeros((dim, dim), dtype=complex) for _ in range(n)]
    weights = np.empty(dim)
    offset = 0
    for b in blocks:
        bxs, bys = _dominated_members(b, cube, rng)
        for i in range(n):
            xs[i][offset : offset + b, offset : offset + b] = bxs[i].entries
            ys[i][offset : offset + b, offset : offset + b] = bys[i].entries
        weights[offset : offset + b] = rng.uniform(0.2, 2.0)
        offset += b
    x, y = (AbelianTuple(tuple(HermitianMatrix(m) for m in ms)) for ms in (xs, ys))
    return x, y, DiagonalState(weights)


def gen_unital_field(dim: int, count: int, seed, kind: str = "generic") -> ColumnField:
    """Random unital column field; unitality is exact by construction.

    ``generic`` draws arbitrary matrices b_t and normalizes by the inverse
    square root of ``sum w_t b_t* b_t``; ``diagonal`` keeps everything in the
    diagonal algebra; ``unitary`` is a single-atom unitary field;
    ``probability`` uses identity atoms with probability weights.
    """
    rng = np.random.default_rng(seed)
    if kind == "unitary":
        return ColumnField((1.0,), (random_unitary(dim, rng),))
    if kind == "probability":
        p = rng.uniform(0.2, 1.0, count)
        p /= p.sum()
        return ColumnField(tuple(p), (np.eye(dim, dtype=complex),) * count)
    weights = rng.uniform(0.5, 2.0, count)
    if kind == "diagonal":
        mats = [np.diag(rng.uniform(0.3, 1.5, dim)).astype(complex) for _ in range(count)]
    elif kind == "generic":
        mats = [
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            for _ in range(count)
        ]
    else:
        raise ValueError(f"unknown field kind {kind!r}")
    gram = sum(w * b.conj().T @ b for w, b in zip(weights, mats))
    es = eig_hermitian(HermitianMatrix(gram))
    if es.lambda_min <= 1e-8 * es.op_norm:
        return gen_unital_field(dim, count, rng, kind)
    root_inv = (es.basis / np.sqrt(es.eigenvalues)) @ es.basis.conj().T
    return ColumnField(tuple(weights), tuple(b @ root_inv for b in mats))


def gen_tuple_field(dim: int, count: int, cube: Cube, seed, kind: str = "generic") -> TupleField:
    """Aligned atoms for a column field; ``diagonal``/``common`` restrict the bases."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        atoms = tuple(AbelianTuple(_diag_members(rng, dim, cube.intervals)) for _ in range(count))
    elif kind == "common":
        q = random_unitary(dim, rng)
        atoms = tuple(AbelianTuple(_spectral_members(rng, q, cube.intervals)) for _ in range(count))
    else:
        atoms = tuple(gen_abelian_tuple(dim, cube, rng) for _ in range(count))
    return TupleField(atoms)


def gen_compatible_pair(dim: int, cube: Cube, seed) -> tuple[AbelianTuple, AbelianTuple]:
    """Compatible pair by construction: both tuples diagonal in one common basis."""
    rng = np.random.default_rng(seed)
    q = random_unitary(dim, rng)
    return tuple(AbelianTuple(_spectral_members(rng, q, cube.intervals)) for _ in range(2))


# ---------------------------------------------------------------------------
# function library
# ---------------------------------------------------------------------------

def function_library(cube: Cube) -> list[CubeFunction]:
    """Named test functions admissible on the cube, with audited shape flags.

    The geometric-mean entry uses the n-th root of the product (the scalar
    geometric mean), which is concave and separately increasing on
    nonnegative cubes at every arity.
    """
    lows = [lo for lo, _ in cube.intervals]
    out = [
        CubeFunction(
            "affine", cube,
            lambda s: 0.1 + sum((0.25 + 0.5 * (i + 1) / len(s)) * v for i, v in enumerate(s)),
            convex=True, concave=True, separately_increasing=True,
        ),
        CubeFunction(
            "sum-of-squares", cube, lambda s: sum(v * v for v in s), convex=True
        ),
        CubeFunction(
            "max", cube, max, convex=True, separately_increasing=True
        ),
        CubeFunction(
            "sum-of-exponentials", cube, lambda s: sum(math.exp(v) for v in s),
            convex=True, separately_increasing=True,
        ),
    ]
    if min(lows) >= 0:
        out.append(
            CubeFunction(
                "square-of-sum", cube, lambda s: sum(s) ** 2,
                convex=True, separately_increasing=True,
            )
        )
        out.append(
            CubeFunction(
                "geometric-mean", cube,
                lambda s: float(np.prod(s)) ** (1.0 / len(s)),
                concave=True, separately_increasing=True,
            )
        )
    if min(lows) > 0:
        out.append(
            CubeFunction(
                "neg-log-product", cube,
                lambda s: -sum(math.log(v) for v in s), convex=True,
            )
        )
    return out


# ---------------------------------------------------------------------------
# serialization (replayable failure records)
# ---------------------------------------------------------------------------

def _ser_c(arr: np.ndarray) -> dict:
    return {"re": np.real(arr).tolist(), "im": np.imag(arr).tolist()}


def _deser_c(d: dict) -> np.ndarray:
    return np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)


def _ser_tuple(t: AbelianTuple) -> list:
    return [_ser_c(m.entries) for m in t.members]


def _deser_tuple(data: list, tol: Tolerance) -> AbelianTuple:
    return AbelianTuple(tuple(HermitianMatrix(_deser_c(d)) for d in data), tol)


def _ser_func(f: CubeFunction) -> dict:
    return {"name": f.name, "arity": f.arity, "cube": [list(iv) for iv in f.domain.intervals]}


def _deser_func(d: dict) -> CubeFunction:
    cube = Cube(tuple(tuple(iv) for iv in d["cube"]))
    if cube.arity != d["arity"]:
        raise ValueError(f"recorded arity {d['arity']} does not match the cube's {cube.arity}")
    for f in function_library(cube):
        if f.name == d["name"]:
            return f
    raise KeyError(f"function {d['name']!r} not in the library for this cube")


def _ser_field(field_: ColumnField) -> dict:
    return {
        "weights": list(field_.weights),
        "matrices": [_ser_c(a) for a in field_.matrices],
    }


def _deser_field(d: dict, tol: Tolerance) -> ColumnField:
    return ColumnField(
        tuple(d["weights"]), tuple(_deser_c(m) for m in d["matrices"]), tol
    )


def _ser_tf(tf: TupleField) -> list:
    return [_ser_tuple(t) for t in tf.atoms]


def _deser_tf(data: list, tol: Tolerance) -> TupleField:
    return TupleField(tuple(_deser_tuple(t, tol) for t in data))


# ---------------------------------------------------------------------------
# instance generators: named check arguments from one RNG stream
# ---------------------------------------------------------------------------

def _draw(rng, lohi) -> int:
    return int(rng.integers(lohi[0], lohi[1] + 1))


def _function_cube(theorem: str, n: int) -> Cube:
    return uniform_cube(n, *_THEOREMS[theorem].picks[1])


def _pickable(theorem: str, cube: Cube) -> list[CubeFunction]:
    """The library functions on ``cube`` that declare every flag ``theorem`` needs."""
    flags = _THEOREMS[theorem].picks[0]
    return [f for f in function_library(cube) if all(getattr(f, g) for g in flags)]


def _pick_function(cfg, rng, cube) -> CubeFunction:
    pool = _pickable(cfg.theorem, cube)
    pool = [f for f in pool if cfg.functions is None or f.name in cfg.functions]
    return pool[int(rng.integers(len(pool)))]


def _random_partition(rng, dim) -> tuple[int, ...]:
    blocks = []
    remaining = dim
    while remaining > 0:
        b = int(rng.integers(1, remaining + 1))
        blocks.append(b)
        remaining -= b
    return tuple(blocks)


def _field_instance(cfg, rng):
    """Dimension, function, field and atoms, in the draw order T3 and T4 share."""
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    count = int(rng.integers(1, 5))
    cube = _function_cube(cfg.theorem, n)
    field_ = gen_unital_field(dim, count, rng)
    tf = gen_tuple_field(dim, field_.count, cube, rng)
    return dim, _pick_function(cfg, rng, cube), field_, tf


def _gen_t1(cfg, rng, index) -> dict:
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    cube = _function_cube(cfg.theorem, n)
    f = _pick_function(cfg, rng, cube)
    x = gen_abelian_tuple(dim, uniform_cube(n, 0.0, 0.6), rng)
    y = AbelianTuple(_diag_members(rng, dim, [(0.8, 2.0)] * n))
    rho = DiagonalState(rng.uniform(0.1, 2.0, dim))
    return {"function": f, "x": x, "y": y, "rho": rho}


def _gen_t2(cfg, rng, index) -> dict:
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    blocks = _random_partition(rng, dim)
    x, y, rho = gen_centralizer_pair(uniform_cube(n, 0.0, 2.0), blocks, rng)
    p = rng.uniform(0.0, 3.0, n)
    if rng.integers(5) == 0:
        p[int(rng.integers(n))] = float(rng.integers(0, 2))
    return {"x": x, "y": y, "p": tuple(float(v) for v in p), "rho": rho}


def _gen_t3(cfg, rng, index) -> dict:
    dim, f, field_, tf = _field_instance(cfg, rng)
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    xi /= np.linalg.norm(xi)
    return {"function": f, "field": field_, "atoms": tf, "xi": xi}


def _gen_t4(cfg, rng, index) -> dict:
    dim, f, field_, tf = _field_instance(cfg, rng)
    rho = DiagonalState(rng.uniform(0.1, 2.0, dim))
    return {"function": f, "field": field_, "atoms": tf, "rho": rho}


# T5 instance kinds: (field kind, atom kind, draws an arity); the first row is
# the one-variable case, and a unitary field has exactly one atom
_T5_KINDS = (
    ("generic", "generic", False),
    ("unitary", "generic", True),
    ("diagonal", "diagonal", True),
    ("probability", "common", True),
)


def _gen_t5(cfg, rng, index) -> dict:
    field_kind, atom_kind, draws_arity = _T5_KINDS[int(rng.integers(len(_T5_KINDS)))]
    dim = _draw(rng, cfg.dim_range)
    n = _draw(rng, cfg.arity_range) if draws_arity else 1
    cube = _function_cube(cfg.theorem, n)
    field_ = gen_unital_field(dim, int(rng.integers(1, 5)), rng, field_kind)
    tf = gen_tuple_field(dim, field_.count, cube, rng, atom_kind)
    f = _pick_function(cfg, rng, cube)
    return {"function": f, "field": field_, "atoms": tf}


def _gen_t6(cfg, rng, index) -> dict:
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    cube = _function_cube(cfg.theorem, n)
    x, y = gen_dominated_pair(dim, cube, rng)
    f = _pick_function(cfg, rng, cube)
    return {"function": f, "x": x, "y": y}


def _gen_cor(cfg, rng, index) -> dict:
    dim = _draw(rng, cfg.dim_range)
    general = rng.integers(2) == 0
    n = 1 if general else _draw(rng, cfg.arity_range)
    cube = _function_cube(cfg.theorem, n)
    if general:
        x = gen_abelian_tuple(dim, cube, rng)
        y = gen_abelian_tuple(dim, cube, rng)
    else:
        x, y = gen_compatible_pair(dim, cube, rng)
    lam = float(rng.uniform(0.0, 1.0))
    if rng.integers(10) == 0:
        lam = float(rng.integers(0, 2))
    f = _pick_function(cfg, rng, cube)
    return {"function": f, "x": x, "y": y, "lam": lam}


def _gen_lh(cfg, rng, index) -> dict:
    dim = _draw(rng, cfg.dim_range)
    q = random_unitary(dim, rng)
    x = HermitianMatrix((q * rng.uniform(0.0, 1.2, dim)) @ q.conj().T)
    u = random_unitary(dim, rng)
    bump = HermitianMatrix((u * rng.uniform(0.0, 1.5, dim)) @ u.conj().T)
    return {"x": x, "y": x + bump}


def _gen_kf(cfg, rng, index) -> dict:
    dim = _draw(rng, cfg.dim_range)
    scale = float(rng.uniform(0.2, 4.0))
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = HermitianMatrix(scale * z)
    k = int(rng.integers(1, dim + 1))
    return {"a": a, "frame": random_frame(dim, k, rng)}


def _gen_ex1(cfg, rng, index) -> dict:
    if index == 0:
        return {"c": 1.0, "t": 1.3, "lam": 3.4}
    c = 1.0
    t = float(rng.uniform(1.02, 1.40))
    lam = float((c / (t - c)) * (1.0 + rng.uniform(0.01, 0.5)))
    return {"c": c, "t": t, "lam": lam}


def _gen_chain(cfg, rng, index) -> dict:
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    x, y = gen_dominated_pair(dim, uniform_cube(n, 0.0, 2.0), rng)
    return {"x": x, "y": y}


# ---------------------------------------------------------------------------
# checks shared by campaigns and replay; each looks its library checks up
# in this module's globals at call time, so patched or traced bindings apply
# ---------------------------------------------------------------------------

def _check_t3(a, tol) -> Verdict:
    return verdict.combine(
        check_jensen_expectation(a["function"], a["field"], a["atoms"], a["xi"], tol),
        check_mond_pecaric(a["function"], a["atoms"].atoms[0], a["xi"], tol),
    )


# ---------------------------------------------------------------------------
# the theorem registry: one generator, one check and one payload codec per id
# ---------------------------------------------------------------------------

# (encode, decode) pairs; every decoder takes the replay tolerance
_FUNCTION = (_ser_func, lambda d, tol: _deser_func(d))
_TUPLE = (_ser_tuple, _deser_tuple)
_STATE = (lambda rho: rho.weights.tolist(), lambda d, tol: DiagonalState(np.asarray(d)))
_MATRIX = (lambda m: _ser_c(m.entries), lambda d, tol: HermitianMatrix(_deser_c(d)))
_ARRAY = (_ser_c, lambda d, tol: _deser_c(d))
_FIELD = (_ser_field, _deser_field)
_ATOMS = (_ser_tf, _deser_tf)
_SCALAR = (lambda v: v, lambda d, tol: d)


@dataclass(frozen=True)
class _Theorem:
    """How one theorem id draws, checks and serializes an instance.

    ``generate(cfg, rng, index)`` returns the check's named arguments;
    ``check(args, tol)`` gives the verdict; ``codecs`` maps each argument
    name, which is also its payload key, to an (encode, decode) pair.  An id
    that picks a library function ``picks`` it by the flags it must declare
    and the interval of each coordinate of its cube; the campaign config
    reads the same pair.
    """

    generate: Callable[[CampaignConfig, np.random.Generator, int], dict]
    check: Callable[[dict, Tolerance], Verdict]
    codecs: dict[str, tuple[Callable, Callable]]
    picks: tuple[tuple[str, ...], tuple[float, float]] | None = None

    def encode(self, args: dict) -> dict:
        return {name: enc(args[name]) for name, (enc, _) in self.codecs.items()}

    def decode(self, payload: dict, tol: Tolerance) -> dict:
        return {name: dec(payload[name], tol) for name, (_, dec) in self.codecs.items()}


_THEOREMS: dict[str, _Theorem] = {
    "T1": _Theorem(
        _gen_t1,
        lambda a, tol: check_phi_monotone_chain(a["function"], a["x"], a["y"], a["rho"], tol),
        {"function": _FUNCTION, "x": _TUPLE, "y": _TUPLE, "rho": _STATE},
        (("concave", "separately_increasing"), (0.0, 2.0)),
    ),
    "T2": _Theorem(
        _gen_t2,
        lambda a, tol: check_trace_power_monotone(a["x"], a["y"], a["p"], a["rho"], tol),
        {"x": _TUPLE, "y": _TUPLE, "p": (list, lambda d, tol: tuple(d)), "rho": _STATE},
    ),
    "T3": _Theorem(
        _gen_t3, _check_t3,
        {"function": _FUNCTION, "field": _FIELD, "atoms": _ATOMS, "xi": _ARRAY},
        (("convex",), (0.05, 2.0)),
    ),
    "T4": _Theorem(
        _gen_t4,
        lambda a, tol: check_phi_jensen_field(
            a["function"], a["field"], a["atoms"], a["rho"], tol
        ),
        {"function": _FUNCTION, "field": _FIELD, "atoms": _ATOMS, "rho": _STATE},
        (("convex",), (0.05, 2.0)),
    ),
    "T5": _Theorem(
        _gen_t5,
        lambda a, tol: check_thm5(a["function"], a["field"], a["atoms"], tol),
        {"function": _FUNCTION, "field": _FIELD, "atoms": _ATOMS},
        (("convex",), (0.05, 2.0)),
    ),
    "T6": _Theorem(
        _gen_t6,
        lambda a, tol: check_thm6(a["function"], a["x"], a["y"], tol),
        {"function": _FUNCTION, "x": _TUPLE, "y": _TUPLE},
        (("convex", "separately_increasing"), (0.0, 2.0)),
    ),
    "COR": _Theorem(
        _gen_cor,
        lambda a, tol: check_corollary(a["function"], a["x"], a["y"], a["lam"], tol),
        {"function": _FUNCTION, "x": _TUPLE, "y": _TUPLE, "lam": _SCALAR},
        (("convex",), (0.0, 2.0)),
    ),
    "LH": _Theorem(
        _gen_lh,
        lambda a, tol: check_lowner_heinz(a["x"], a["y"], LH_ALPHAS, tol),
        {"x": _MATRIX, "y": _MATRIX},
    ),
    "KF": _Theorem(
        _gen_kf,
        lambda a, tol: kyfan_check(a["a"], a["frame"], tol),
        {"a": _MATRIX, "frame": _ARRAY},
    ),
    "EX1": _Theorem(
        _gen_ex1,
        lambda a, tol: reproduce_example1(a["c"], a["t"], a["lam"], tol),
        {"c": _SCALAR, "t": _SCALAR, "lam": _SCALAR},
    ),
    "CHAIN": _Theorem(
        _gen_chain,
        lambda a, tol: check_root_product_chain(a["x"], a["y"], tol),
        {"x": _TUPLE, "y": _TUPLE},
    ),
}

THEOREM_IDS = tuple(_THEOREMS)


def replay_instance(instance: dict, tol: Tolerance = DEFAULT_TOL) -> Verdict:
    """Re-run the check for a serialized instance; deterministic, so the verdict must match."""
    entry = _THEOREMS.get(instance["theorem"])
    if entry is None:
        raise ConfigError(f"unknown theorem {instance['theorem']!r}")
    return entry.check(entry.decode(instance, tol), tol)


# ---------------------------------------------------------------------------
# campaign orchestration
# ---------------------------------------------------------------------------

@dataclass
class CampaignReport:
    """Config echo, per-instance verdicts, and summary counts for one campaign."""

    config: dict
    verdicts: list[dict]
    summary: dict
    wall_time_s: float
    schema_version: int = SCHEMA_VERSION

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(
            {
                "schema_version": self.schema_version,
                "config": self.config,
                "verdicts": self.verdicts,
                "summary": self.summary,
                "wall_time_s": self.wall_time_s,
            },
            sort_keys=True,
            indent=indent,
        )

    @staticmethod
    def from_json(text: str) -> "CampaignReport":
        d = json.loads(text)
        return CampaignReport(
            config=d["config"],
            verdicts=d["verdicts"],
            summary=d["summary"],
            wall_time_s=d["wall_time_s"],
            schema_version=d["schema_version"],
        )

    @property
    def failures(self) -> list[dict]:
        return [r for r in self.verdicts if r["status"] == verdict.FAIL]


def run_campaign(cfg: CampaignConfig) -> CampaignReport:
    """Run a seeded campaign; deterministic given the config (wall time aside).

    Invalid instances are counted but excluded from pass statistics; every
    failing record carries the full serialized instance for replay; gaps
    within 10x their slack are flagged near-equality for tolerance audit.
    """
    start = time.perf_counter()
    records = []
    npass = nfail = ninvalid = nnear = 0
    min_gap = None
    entry = _THEOREMS[cfg.theorem]
    for i in range(cfg.count):
        args = entry.generate(cfg, instance_rng(cfg.seed, i), i)
        v = entry.check(args, cfg.tol)
        rec: dict = {"index": i, "status": v.status, "gap": v.gap}
        if "function" in args:
            rec["function"] = args["function"].name
        for part in [v.detail] + list(v.detail.get("parts", [])):
            if "mu_mass" in part:
                rec["mu_mass"] = float(part["mu_mass"])
        slack = v.detail.get("slack")
        near = v.gap is not None and slack is not None and abs(v.gap) <= 10.0 * slack
        rec["near_equality"] = bool(near)
        if "claims" in v.detail:  # EX1: the sweep table reads params and claims
            rec["params"] = entry.encode(args)
            rec["claims"] = dict(v.detail["claims"])
        if v.status == verdict.FAIL:
            rec["instance"] = {"theorem": cfg.theorem, **entry.encode(args)}
            nfail += 1
        elif v.status == verdict.INVALID:
            rec["reason"] = v.detail.get("reason", "")
            ninvalid += 1
        else:
            npass += 1
        if near:
            nnear += 1
        if v.gap is not None:
            min_gap = v.gap if min_gap is None else min(min_gap, v.gap)
        records.append(rec)
    summary = {
        "pass": npass,
        "fail": nfail,
        "invalid": ninvalid,
        "near_equality": nnear,
        "min_gap": min_gap,
    }
    return CampaignReport(
        config=cfg.as_dict(),
        verdicts=records,
        summary=summary,
        wall_time_s=time.perf_counter() - start,
    )
