"""Results that carry their spectral decomposition, and the per-matrix norm memo.

``EigenSystem.reconstruct`` (and so ``hermitian_function`` and
``matrix_power``) and ``apply_cube_function`` build a matrix from a known
eigensystem and carry the pair it was built from; the first ``eig_hermitian``
sorts that pair into the matrix's eigensystem, so no kernel run recovers a
spectrum the code just assembled, and a result never read costs no sort.
Generators never produce such a matrix: replay decodes raw entries, which
carry no memo.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opineq import harness as hz
from opineq import linalg
from opineq.abelian import (
    AbelianTuple,
    CubeFunction,
    apply_cube_function,
    check_commuting,
    uniform_cube,
)
from opineq.harness import (
    THEOREM_IDS,
    CampaignConfig,
    function_library,
    gen_abelian_tuple,
    gen_dominated_pair,
    gen_tuple_field,
    instance_rng,
    run_campaign,
)
from opineq.linalg import (
    HermitianMatrix,
    diagonal,
    eig_hermitian,
    hermitian_function,
    matrix_power,
)
from opineq.majorization import check_corollary, check_thm6
from opineq.means import check_lowner_heinz, geometric_mean
from opineq.pinching import TupleField

from random_matrices import random_hermitian, random_psd

MAX2 = CubeFunction("max", uniform_cube(2, 0, 2), max, convex=True, separately_increasing=True)
SUMEXP2 = CubeFunction(
    "sumexp", uniform_cube(2, 0, 2), lambda s: math.exp(s[0]) + math.exp(s[1]),
    convex=True, separately_increasing=True,
)
SCALAR_FUNCTIONS = (math.exp, math.sin, abs, lambda t: t**3, lambda t: -t)


def assert_accurate(out: HermitianMatrix) -> None:
    es = eig_hermitian(out)  # the carried decomposition
    scale = 1.0 + out.norm()
    assert np.all(np.diff(es.eigenvalues) <= 0.0)
    kernel = eig_hermitian(HermitianMatrix(out.entries))
    assert np.max(np.abs(es.eigenvalues - kernel.eigenvalues)) <= 1e-12 * scale
    b = es.basis
    assert np.max(np.abs(b.conj().T @ b - np.eye(out.dim))) <= 1e-12
    assert np.max(np.abs(out.entries @ b - b * es.eigenvalues)) <= 1e-12 * scale


class TestCarriedAccuracy:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 7),
           g=st.sampled_from(SCALAR_FUNCTIONS))
    def test_hermitian_function(self, seed, dim, g):
        assert_accurate(hermitian_function(random_hermitian(np.random.default_rng(seed), dim), g))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 7), p=st.floats(0.0, 3.0),
           singular=st.booleans())
    def test_matrix_power(self, seed, dim, p, singular):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, dim, rank=max(dim - 1, 1) if singular else None)
        assert_accurate(matrix_power(a, p))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), n=st.integers(1, 3),
           pick=st.integers(0, 100), degenerate=st.booleans())
    def test_apply_cube_function(self, seed, dim, n, pick, degenerate):
        cube = uniform_cube(n, 0.0, 2.0)
        if degenerate:
            # repeated eigenvalues in every member make the joint basis refine clusters
            t = AbelianTuple(tuple(diagonal(np.repeat(v, 2)[:dim]) for v in
                                   np.random.default_rng(seed).uniform(0.0, 2.0, (n, dim))))
        else:
            t = gen_abelian_tuple(dim, cube, seed)
        lib = function_library(cube)
        assert_accurate(apply_cube_function(lib[pick % len(lib)], t))


class TestExactIdentity:
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("rank", ["full", "singular", "zero"])
    def test_zeroth_power_is_the_exact_identity(self, dim, rank):
        rng = np.random.default_rng(40 + dim)
        a = {"full": random_psd(rng, dim), "singular": random_psd(rng, dim, rank=1),
             "zero": HermitianMatrix(np.zeros((dim, dim)))}[rank]
        out = matrix_power(a, 0.0)
        assert out.entries.tobytes() == np.eye(dim, dtype=complex).tobytes()
        assert np.array_equal(eig_hermitian(out).eigenvalues, np.ones(dim))

    def test_lowner_heinz_alpha_zero_difference_is_zero(self):
        rng = np.random.default_rng(41)
        x = random_psd(rng, 5)
        y = x + random_psd(rng, 5)
        diff = matrix_power(y, 0.0) - matrix_power(x, 0.0)
        assert not np.any(diff.entries)
        v = check_lowner_heinz(x, y, [0.0])
        assert v.passed and v.gap == 0.0


class TestKernelRuns:
    def test_thm6_runs_the_kernel_once(self, jacobi_runs):
        # once per tuple: each admission decomposes its leading member, and
        # the check then runs none; the Cholesky certificate settles the
        # differences, and f(x) and f(y) carry their spectra
        x, y = gen_dominated_pair(4, uniform_cube(2, 0.0, 2.0), 61)
        assert jacobi_runs == [x.members[0], y.members[0]]
        del jacobi_runs[:]
        assert check_thm6(SUMEXP2, x, y).passed
        assert jacobi_runs == []

    def test_corollary_runs_the_kernel_on_the_right_side_only(self, jacobi_runs):
        # past the admissions of x, y and the mix, each of its leading member,
        # f(mix) carries its spectrum; the mixed right-hand side
        # lam f(x) + (1 - lam) f(y) is the one new matrix
        x, y = gen_tuple_field(4, 2, uniform_cube(2, 0.0, 2.0), 21, "common").atoms
        assert jacobi_runs == [x.members[0], y.members[0]]
        del jacobi_runs[:]
        assert check_corollary(MAX2, x, y, 0.5).passed
        mix_lead = 0.5 * (x.members[0] + y.members[0])
        assert len(jacobi_runs) == 2
        assert jacobi_runs[0].entries.tobytes() == mix_lead.entries.tobytes()

    def test_geometric_mean_regularized_pair_is_not_decomposed(self, jacobi_runs):
        rng = np.random.default_rng(62)
        x = diagonal([2.0, 1.0, 0.0])
        y = random_psd(rng, 3)
        geometric_mean(x, y)
        # x and y, then the inner matrix; the lifted pair reuses their bases
        assert jacobi_runs[:2] == [x, y]
        assert len(jacobi_runs) == 3


@pytest.fixture
def eigensystems_built(monkeypatch):
    """Every ``EigenSystem`` that ``linalg`` constructs, in order."""
    original = linalg.EigenSystem
    built = []

    def counted(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(linalg, "EigenSystem", counted)
    return built


class TestLazyMemo:
    def test_unread_result_builds_no_eigensystem(self, eigensystems_built, jacobi_runs):
        a = random_psd(np.random.default_rng(65), 5)
        eig_hermitian(a)
        del eigensystems_built[:], jacobi_runs[:]
        out = matrix_power(a, 0.5)
        assert eigensystems_built == []
        es = eig_hermitian(out)
        assert eigensystems_built == [es] and jacobi_runs == []

    def test_later_writes_to_the_values_change_nothing(self):
        es = eig_hermitian(random_hermitian(np.random.default_rng(66), 4))
        values = np.array([4.0, 3.0, 2.0, 1.0])
        out = es.reconstruct(values)
        values[:] = 0.0
        assert eig_hermitian(out).eigenvalues.tolist() == [4.0, 3.0, 2.0, 1.0]

    def test_memo_is_the_stable_sort_of_the_carried_pair(self):
        es = eig_hermitian(random_hermitian(np.random.default_rng(67), 5))
        values = np.array([1.0, 3.0, 1.0, -2.0, 3.0])
        got = eig_hermitian(es.reconstruct(values))
        order = [1, 4, 0, 2, 3]  # ties keep their column order
        assert got.eigenvalues.tobytes() == values[order].tobytes()
        assert got.basis.tobytes() == es.basis[:, order].tobytes()


def _tuples(value):
    """Every AbelianTuple reachable from a generated argument."""
    if isinstance(value, AbelianTuple):
        yield value
    elif isinstance(value, TupleField):
        yield from value.atoms


def _matrices(value):
    """Every HermitianMatrix reachable from a generated argument."""
    if isinstance(value, HermitianMatrix):
        yield value
    for t in _tuples(value):
        yield from t.members


def _memo_state(args):
    """Which matrices of the arguments hold a decomposition, in argument order."""
    return [
        "_eigensystem" in m.__dict__ for v in args.values() for m in _matrices(v)
    ]


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_generators_never_produce_a_carried_matrix(theorem, jacobi_runs):
    # a generated matrix carries no pair, and holds a decomposition only where
    # the replayed one does (a tuple's leading member, from its admission);
    # so a campaign's check and its replay's run the same kernel matrices
    cfg = CampaignConfig(theorem, 12, dim_range=(2, 6), arity_range=(1, 3), seed=43)
    entry = hz._THEOREMS[theorem]
    seen = 0
    for i in range(cfg.count):
        args = entry.generate(cfg, instance_rng(cfg.seed, i), i)
        replayed = entry.decode(entry.encode(args), cfg.tol)
        for m in (m for v in args.values() for m in _matrices(v)):
            seen += 1
            assert "_carried" not in m.__dict__, (theorem, i)
        assert _memo_state(args) == _memo_state(replayed), (theorem, i)
        runs = []
        for a in (args, replayed):
            del jacobi_runs[:]
            verdict = entry.check(a, cfg.tol)
            runs.append((verdict.status, verdict.gap, [r.entries.tobytes() for r in jacobi_runs]))
        assert runs[0] == runs[1], (theorem, i)
    assert seen > 0 or theorem == "EX1"


# Kernel matrices per 20-instance campaign at seed 17, dims 2-6, arity 1-3:
# every tuple's spectra come from its leading member's decomposition, a
# check decomposes no matrix twice, and the memberwise differences behind
# x <= y are certified without the kernel.  A change that loses spectral
# reuse raises a count above its budget.
KERNEL_BUDGET = {
    "T1": 40, "T2": 40, "T3": 73, "T4": 73, "T5": 91, "T6": 40,
    "COR": 74, "LH": 140, "KF": 20, "EX1": 40, "CHAIN": 60,
}


def _small_campaign(theorem):
    return run_campaign(CampaignConfig(theorem, 20, dim_range=(2, 6), arity_range=(1, 3), seed=17))


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_kernel_budget(theorem, jacobi_runs):
    _small_campaign(theorem)
    assert len(jacobi_runs) <= KERNEL_BUDGET[theorem]


@pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4", "T5", "T6", "COR", "CHAIN"])
def test_no_trailing_member_reaches_the_kernel(theorem, monkeypatch, jacobi_runs):
    # a tuple's spectral questions read its joint spectrum, which decomposes
    # member 0 and at most blocks of the others, never a whole later member
    trailing = []
    init = AbelianTuple.__post_init__

    def recording(self):
        init(self)
        trailing.extend(self.members[1:])

    monkeypatch.setattr(AbelianTuple, "__post_init__", recording)
    _small_campaign(theorem)
    ids = {id(m) for m in trailing}  # the list keeps every id alive and distinct
    assert trailing and not [a for a in jacobi_runs if id(a) in ids]


def test_every_kernel_run_enters_through_eig_hermitian(monkeypatch):
    # the kernel runs only on the matrix of an eig_hermitian call reached
    # through a module binding, so wrapping those bindings sees every run
    original, kernel = linalg.eig_hermitian, linalg._jacobi
    entered, runs, outside = [], [], []

    def entry(a):
        entered.append(a)
        try:
            return original(a)
        finally:
            entered.pop()

    def counted(a):
        runs.append(a)
        if not (entered and entered[-1] is a):
            outside.append(a)
        return kernel(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("opineq") and getattr(module, "eig_hermitian", None) is original:
            monkeypatch.setattr(module, "eig_hermitian", entry)
    monkeypatch.setattr(linalg, "_jacobi", counted)
    for theorem in THEOREM_IDS:
        _small_campaign(theorem)
    rng = np.random.default_rng(65)
    geometric_mean(random_psd(rng, 4), random_psd(rng, 4))
    assert runs and outside == []


def test_campaign_matrices_sweep_only_at_dim_two(monkeypatch, script):
    # every matrix of dimension 3 or more that campaigns build passes the stop
    # test right after its checked LAPACK start; a start that stopped being
    # kept would leave every verdict as it is and run about 5x slower
    original = linalg._sweeps
    swept = Counter()

    def counted(w, u, threshold):
        off = w[~np.eye(len(w), dtype=bool)]
        if not math.sqrt(np.vdot(off, off).real) <= threshold:
            swept[len(w)] += 1
        return original(w, u, threshold)

    monkeypatch.setattr(linalg, "_sweeps", counted)
    for theorem, _, dims, arity, seed in script.STANDARD:
        dim_range, arity_range = (tuple(int(v) for v in r.split("..")) for r in (dims, arity))
        cfg = CampaignConfig(theorem, 20, dim_range=dim_range, arity_range=arity_range, seed=seed)
        run_campaign(cfg)
    assert swept[2] > 0  # the counter sees the sweeps that do run
    assert {m: n for m, n in swept.items() if m >= 3} == {}


@pytest.fixture
def norm_calls(monkeypatch):
    """Shapes of the arrays passed to ``np.linalg.norm``, in call order."""
    original = np.linalg.norm
    calls = []

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted)
    return calls


class TestNormMemo:
    def test_norm_computed_once_per_matrix(self, norm_calls):
        a = random_hermitian(np.random.default_rng(63), 4)
        assert a.norm() == a.norm()
        eig_hermitian(a)  # the kernel's stop threshold reads the memo
        assert norm_calls == [(4, 4)]

    def test_check_commuting_norms_each_member_once(self, norm_calls):
        t = gen_abelian_tuple(3, uniform_cube(4, 0.0, 2.0), 64)
        members = [HermitianMatrix(m.entries) for m in t.members]
        norm_calls.clear()
        assert check_commuting(members)
        # one norm per member and one per commutator of the 6 pairs
        assert len(norm_calls) == 4 + 6
