"""Instance generators, the audited function library, and seeded verification campaigns.

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
from .abelian import AbelianTuple, Cube, CubeFunction, memberwise_leq, uniform_cube
from .linalg import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerance,
    diagonal,
    eig_hermitian,
    psd_margin,
)
from .majorization import check_corollary, check_thm5, check_thm6, kyfan_check
from .means import (
    ExponentVector,
    check_lowner_heinz,
    check_trace_power_monotone,
    root_product_chain,
)
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
    """Orthonormal m-by-k frame from a Gaussian draw, rejecting near-singular draws."""
    while True:
        z = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        if np.linalg.cond(z) <= 1e8:
            q, _ = np.linalg.qr(z)
            return q[:, :k]


# ---------------------------------------------------------------------------
# instance generators
# ---------------------------------------------------------------------------

def _spectral_tuple(rng, q: np.ndarray, intervals) -> AbelianTuple:
    """Members diagonal in the basis ``q``, eigenvalues uniform per interval."""
    dim = q.shape[0]
    return AbelianTuple(
        tuple(HermitianMatrix((q * rng.uniform(lo, hi, dim)) @ q.conj().T) for lo, hi in intervals)
    )


def gen_abelian_tuple(dim: int, n: int, cube: Cube, seed) -> AbelianTuple:
    """Commuting tuple sharing one random eigenbasis, eigenvalues uniform per interval."""
    rng = np.random.default_rng(seed)
    if cube.arity != n:
        raise ValueError("cube arity must match n")
    return _spectral_tuple(rng, random_unitary(dim, rng), cube.intervals)


def gen_dominated_pair(dim: int, n: int, cube: Cube, seed) -> tuple[AbelianTuple, AbelianTuple]:
    """Memberwise-ordered pair of abelian tuples with independent eigenbases.

    x eigenvalues live in the lower 30% of each interval and y eigenvalues in
    the upper 60%, so ``y_i - x_i >= 0.1 (hi - lo) I`` holds by range
    separation while the two tuples generically fail to commute with each
    other.  Checks that consume the pair keep their own order guard.
    """
    rng = np.random.default_rng(seed)
    if any(hi <= lo for lo, hi in cube.intervals):
        raise ValueError("cube needs headroom in every interval")
    lower = Cube(tuple((lo, lo + 0.3 * (hi - lo)) for lo, hi in cube.intervals))
    upper = Cube(tuple((lo + 0.4 * (hi - lo), hi) for lo, hi in cube.intervals))
    return gen_abelian_tuple(dim, n, lower, rng), gen_abelian_tuple(dim, n, upper, rng)


def gen_centralizer_pair(
    dim: int,
    n: int,
    rho_blocks: Sequence[int],
    seed,
    cube: Cube | None = None,
) -> tuple[AbelianTuple, AbelianTuple, DiagonalState]:
    """Ordered pair of abelian tuples commuting exactly with a block-constant state.

    The state is diagonal and constant on each block of the partition; both
    tuples are block-diagonal for that partition (so the commutators with the
    state vanish identically), and within each block they are generated as a
    dominated pair.
    """
    rng = np.random.default_rng(seed)
    blocks = tuple(int(b) for b in rho_blocks)
    if sum(blocks) != dim or any(b < 1 for b in blocks):
        raise ValueError(f"blocks {blocks} do not partition dimension {dim}")
    if cube is None:
        cube = uniform_cube(n, 0.0, 2.0)
    xs = [np.zeros((dim, dim), dtype=complex) for _ in range(n)]
    ys = [np.zeros((dim, dim), dtype=complex) for _ in range(n)]
    weights = np.empty(dim)
    offset = 0
    for b in blocks:
        bx, by = gen_dominated_pair(b, n, Cube(cube.intervals), rng)
        for i in range(n):
            xs[i][offset : offset + b, offset : offset + b] = bx.members[i].entries
            ys[i][offset : offset + b, offset : offset + b] = by.members[i].entries
        weights[offset : offset + b] = rng.uniform(0.2, 2.0)
        offset += b
    x = AbelianTuple(tuple(HermitianMatrix(m) for m in xs))
    y = AbelianTuple(tuple(HermitianMatrix(m) for m in ys))
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


def gen_tuple_field(
    dim: int, n: int, count: int, cube: Cube, seed, kind: str = "generic"
) -> TupleField:
    """Aligned atoms for a column field; ``diagonal``/``common`` restrict the bases."""
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        atoms = tuple(
            AbelianTuple(
                tuple(diagonal(rng.uniform(lo, hi, dim)) for lo, hi in cube.intervals)
            )
            for _ in range(count)
        )
    elif kind == "common":
        q = random_unitary(dim, rng)
        atoms = tuple(_spectral_tuple(rng, q, cube.intervals) for _ in range(count))
    else:
        atoms = tuple(gen_abelian_tuple(dim, n, cube, rng) for _ in range(count))
    return TupleField(atoms)


def gen_compatible_pair(dim: int, n: int, cube: Cube, seed) -> tuple[AbelianTuple, AbelianTuple]:
    """Compatible pair by construction: both tuples diagonal in one common basis."""
    rng = np.random.default_rng(seed)
    q = random_unitary(dim, rng)
    return _spectral_tuple(rng, q, cube.intervals), _spectral_tuple(rng, q, cube.intervals)


# ---------------------------------------------------------------------------
# function library and flag audit
# ---------------------------------------------------------------------------

def function_library(n: int, cube: Cube) -> list[CubeFunction]:
    """Named test functions admissible on the cube, with audited shape flags.

    The geometric-mean entry uses the n-th root of the product (the scalar
    geometric mean), which is concave and separately increasing on
    nonnegative cubes at every arity.
    """
    if cube.arity != n:
        raise ValueError("cube arity must match n")
    lows = [lo for lo, _ in cube.intervals]
    out = [
        CubeFunction(
            "affine", n, cube,
            lambda s: 0.1 + sum((0.25 + 0.5 * (i + 1) / len(s)) * v for i, v in enumerate(s)),
            convex=True, concave=True, separately_increasing=True,
        ),
        CubeFunction(
            "sum-of-squares", n, cube, lambda s: sum(v * v for v in s), convex=True
        ),
        CubeFunction(
            "max", n, cube, max, convex=True, separately_increasing=True
        ),
        CubeFunction(
            "sum-of-exponentials", n, cube, lambda s: sum(math.exp(v) for v in s),
            convex=True, separately_increasing=True,
        ),
    ]
    if min(lows) >= 0:
        out.append(
            CubeFunction(
                "square-of-sum", n, cube, lambda s: sum(s) ** 2,
                convex=True, separately_increasing=True,
            )
        )
        out.append(
            CubeFunction(
                "geometric-mean", n, cube,
                lambda s: float(np.prod(s)) ** (1.0 / len(s)),
                concave=True, separately_increasing=True,
            )
        )
        out.append(
            CubeFunction(
                "monomial", n, cube,
                lambda s: float(np.prod([v ** (0.5 + 0.25 * i) for i, v in enumerate(s)])),
                separately_increasing=True,
            )
        )
    if min(lows) > 0:
        out.append(
            CubeFunction(
                "neg-log-product", n, cube,
                lambda s: -sum(math.log(v) for v in s), convex=True,
            )
        )
    return out


def mislabeled_controls(n: int, cube: Cube) -> list[CubeFunction]:
    """Deliberately wrong flag declarations; the audit must reject every one."""
    controls = [
        CubeFunction(
            "control-sumsq-as-concave", n, cube,
            lambda s: sum(v * v for v in s), concave=True,
        ),
        CubeFunction(
            "control-negsum-as-increasing", n, cube,
            lambda s: -sum(s), separately_increasing=True,
        ),
    ]
    if n >= 2:
        controls.append(
            CubeFunction("control-max-as-concave", n, cube, max, concave=True)
        )
    return controls


def verify_flags(f: CubeFunction, samples: int = 200, seed: int = 0) -> bool:
    """Randomized audit of declared flags: midpoint probes for convexity and
    concavity, coordinate probes for separate monotonicity.

    A declared flag failing any probe fails the audit; undeclared flags are
    not inferred.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    rng = np.random.default_rng(seed)
    draw = lambda: [rng.uniform(lo, hi) for lo, hi in f.domain.intervals]
    if f.convex or f.concave:
        for _ in range(samples):
            a, b = draw(), draw()
            m = [(u + v) / 2 for u, v in zip(a, b)]
            avg = (f(a) + f(b)) / 2
            if f.convex and f(m) > avg + 1e-9:
                return False
            if f.concave and f(m) < avg - 1e-9:
                return False
    if f.separately_increasing:
        for _ in range(samples):
            a = draw()
            j = int(rng.integers(f.arity))
            b = list(a)
            b[j] = rng.uniform(a[j], f.domain.intervals[j][1])
            if f(b) < f(a) - 1e-9:
                return False
    return True


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
    for f in function_library(d["arity"], cube):
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


def _pick_function(cfg, rng, n, cube, need: tuple[str, ...]) -> CubeFunction:
    pool = [
        f
        for f in function_library(n, cube)
        if all(getattr(f, flag) for flag in need)
        and (cfg.functions is None or f.name in cfg.functions)
    ]
    if not pool:
        raise ConfigError(
            f"no library function with flags {need} matches the sweep list {cfg.functions}"
        )
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
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    count = int(rng.integers(1, 5))
    cube = uniform_cube(n, 0.05, 2.0)
    field_ = gen_unital_field(dim, count, rng)
    tf = gen_tuple_field(dim, n, field_.count, cube, rng)
    return dim, n, cube, field_, tf


def _gen_t1(cfg, rng, index) -> dict:
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    cube = uniform_cube(n, 0.0, 2.0)
    f = _pick_function(cfg, rng, n, cube, ("concave", "separately_increasing"))
    x = gen_abelian_tuple(dim, n, uniform_cube(n, 0.0, 0.6), rng)
    y = AbelianTuple(tuple(diagonal(rng.uniform(0.8, 2.0, dim)) for _ in range(n)))
    rho = DiagonalState(rng.uniform(0.1, 2.0, dim))
    return {"function": f, "x": x, "y": y, "rho": rho}


def _gen_t2(cfg, rng, index) -> dict:
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    blocks = _random_partition(rng, dim)
    x, y, rho = gen_centralizer_pair(dim, n, blocks, rng)
    p = rng.uniform(0.0, 3.0, n)
    if rng.integers(5) == 0:
        p[int(rng.integers(n))] = float(rng.integers(0, 2))
    return {"x": x, "y": y, "p": ExponentVector(tuple(p)), "rho": rho}


def _gen_t3(cfg, rng, index) -> dict:
    dim, n, cube, field_, tf = _field_instance(cfg, rng)
    f = _pick_function(cfg, rng, n, cube, ("convex",))
    xi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    xi /= np.linalg.norm(xi)
    return {"function": f, "field": field_, "atoms": tf, "xi": xi}


def _gen_t4(cfg, rng, index) -> dict:
    dim, n, cube, field_, tf = _field_instance(cfg, rng)
    f = _pick_function(cfg, rng, n, cube, ("convex",))
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
    cube = uniform_cube(n, 0.05, 2.0)
    field_ = gen_unital_field(dim, int(rng.integers(1, 5)), rng, field_kind)
    tf = gen_tuple_field(dim, n, field_.count, cube, rng, atom_kind)
    f = _pick_function(cfg, rng, n, cube, ("convex",))
    return {"function": f, "field": field_, "atoms": tf}


def _gen_t6(cfg, rng, index) -> dict:
    dim, n = _draw(rng, cfg.dim_range), _draw(rng, cfg.arity_range)
    cube = uniform_cube(n, 0.0, 2.0)
    x, y = gen_dominated_pair(dim, n, cube, rng)
    f = _pick_function(cfg, rng, n, cube, ("convex", "separately_increasing"))
    return {"function": f, "x": x, "y": y}


def _gen_cor(cfg, rng, index) -> dict:
    dim = _draw(rng, cfg.dim_range)
    general = rng.integers(2) == 0
    n = 1 if general else _draw(rng, cfg.arity_range)
    cube = uniform_cube(n, 0.0, 2.0)
    if general:
        x = gen_abelian_tuple(dim, 1, cube, rng)
        y = gen_abelian_tuple(dim, 1, cube, rng)
    else:
        x, y = gen_compatible_pair(dim, n, cube, rng)
    lam = float(rng.uniform(0.0, 1.0))
    if rng.integers(10) == 0:
        lam = float(rng.integers(0, 2))
    f = _pick_function(cfg, rng, n, cube, ("convex",))
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
    x, y = gen_dominated_pair(dim, n, uniform_cube(n, 0.0, 2.0), rng)
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


def _check_ex1(a, tol) -> Verdict:
    report = reproduce_example1(a["c"], a["t"], a["lam"], tol)
    return Verdict(
        verdict.PASS if report.all_hold else verdict.FAIL,
        report.order_margin,
        {"params": [report.c, report.t, report.lam], "verdicts": report.verdicts},
    )


def _check_chain(a, tol) -> Verdict:
    x, y = a["x"], a["y"]
    if not memberwise_leq(x, y, tol):
        return verdict.invalid("x <= y fails memberwise")
    diff = root_product_chain(y, tol) - root_product_chain(x, tol)
    return verdict.from_gap(*psd_margin(eig_hermitian(diff), tol))


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
    name, which is also its payload key, to an (encode, decode) pair.
    ``sweep`` records carry their encoded parameters and per-claim verdicts.
    """

    generate: Callable[[CampaignConfig, np.random.Generator, int], dict]
    check: Callable[[dict, Tolerance], Verdict]
    codecs: dict[str, tuple[Callable, Callable]]
    sweep: bool = False

    def encode(self, args: dict) -> dict:
        return {name: enc(args[name]) for name, (enc, _) in self.codecs.items()}

    def decode(self, payload: dict, tol: Tolerance) -> dict:
        return {name: dec(payload[name], tol) for name, (_, dec) in self.codecs.items()}


_THEOREMS: dict[str, _Theorem] = {
    "T1": _Theorem(
        _gen_t1,
        lambda a, tol: check_phi_monotone_chain(a["function"], a["x"], a["y"], a["rho"], tol),
        {"function": _FUNCTION, "x": _TUPLE, "y": _TUPLE, "rho": _STATE},
    ),
    "T2": _Theorem(
        _gen_t2,
        lambda a, tol: check_trace_power_monotone(a["x"], a["y"], a["p"], a["rho"], tol),
        {"x": _TUPLE, "y": _TUPLE,
         "p": (lambda e: list(e.p), lambda d, tol: ExponentVector(tuple(d))), "rho": _STATE},
    ),
    "T3": _Theorem(
        _gen_t3, _check_t3,
        {"function": _FUNCTION, "field": _FIELD, "atoms": _ATOMS, "xi": _ARRAY},
    ),
    "T4": _Theorem(
        _gen_t4,
        lambda a, tol: check_phi_jensen_field(
            a["function"], a["field"], a["atoms"], a["rho"], tol
        ),
        {"function": _FUNCTION, "field": _FIELD, "atoms": _ATOMS, "rho": _STATE},
    ),
    "T5": _Theorem(
        _gen_t5,
        lambda a, tol: check_thm5(a["function"], a["field"], a["atoms"], tol),
        {"function": _FUNCTION, "field": _FIELD, "atoms": _ATOMS},
    ),
    "T6": _Theorem(
        _gen_t6,
        lambda a, tol: check_thm6(a["function"], a["x"], a["y"], tol),
        {"function": _FUNCTION, "x": _TUPLE, "y": _TUPLE},
    ),
    "COR": _Theorem(
        _gen_cor,
        lambda a, tol: check_corollary(a["function"], a["x"], a["y"], a["lam"], tol),
        {"function": _FUNCTION, "x": _TUPLE, "y": _TUPLE, "lam": _SCALAR},
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
        _gen_ex1, _check_ex1, {"c": _SCALAR, "t": _SCALAR, "lam": _SCALAR}, sweep=True
    ),
    "CHAIN": _Theorem(_gen_chain, _check_chain, {"x": _TUPLE, "y": _TUPLE}),
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
        if entry.sweep:
            rec["params"] = entry.encode(args)
            rec["claims"] = dict(v.detail["verdicts"])
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
