"""Results that carry their spectral decomposition, and the per-matrix norm memo.

``EigenSystem.reconstruct`` (and so ``hermitian_function`` and
``matrix_power``) and ``apply_cube_function`` build a matrix from a known
eigensystem and carry the pair it was built from; the first ``decompose``
sorts that pair into the matrix's eigensystem, so no kernel run recovers a
spectrum the code just assembled, and a result never read costs no sort.
Generators never produce such a matrix: replay decodes raw entries, which
carry no memo.
"""

import math

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
    gen_compatible_pair,
    gen_dominated_pair,
    instance_rng,
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

MAX2 = CubeFunction("max", 2, uniform_cube(2, 0, 2), max, convex=True, separately_increasing=True)
SUMEXP2 = CubeFunction(
    "sumexp", 2, uniform_cube(2, 0, 2), lambda s: math.exp(s[0]) + math.exp(s[1]),
    convex=True, separately_increasing=True,
)
SCALAR_FUNCTIONS = (math.exp, math.sin, abs, lambda t: t**3, lambda t: -t)


def random_hermitian(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianMatrix(z)


def random_psd(rng, dim, rank=None):
    z = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
    return HermitianMatrix(z @ z.conj().T)


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
            t = gen_abelian_tuple(dim, n, cube, seed)
        lib = function_library(n, cube)
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
        # members and their differences in one batch; f(x) and f(y) carry their spectra
        n = 2
        x, y = gen_dominated_pair(4, n, uniform_cube(n, 0.0, 2.0), 61)
        assert check_thm6(SUMEXP2, x, y).passed
        assert jacobi_runs.batches == [3 * n]

    def test_corollary_runs_the_kernel_on_the_right_side_only(self, jacobi_runs):
        # x, y and the mix in one batch; f(mix) carries its spectrum, the mixed
        # right-hand side lam f(x) + (1 - lam) f(y) is the one new matrix
        x, y = gen_compatible_pair(4, 2, uniform_cube(2, 0.0, 2.0), 21)
        assert check_corollary(MAX2, x, y, 0.5).passed
        assert jacobi_runs.batches == [6, 1]

    def test_geometric_mean_regularized_pair_is_not_decomposed(self, jacobi_runs):
        rng = np.random.default_rng(62)
        x = diagonal([2.0, 1.0, 0.0])
        y = random_psd(rng, 3)
        geometric_mean(x, y)
        # x and y, then the inner matrix; the lifted pair reuses their bases
        assert jacobi_runs.batches == [2, 1]


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


def _matrices(value):
    """Every HermitianMatrix reachable from a generated argument."""
    if isinstance(value, HermitianMatrix):
        yield value
    elif isinstance(value, AbelianTuple):
        yield from value.members
    elif isinstance(value, TupleField):
        for t in value.atoms:
            yield from t.members


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_generators_never_produce_a_carried_matrix(theorem):
    cfg = CampaignConfig(theorem, 12, dim_range=(2, 6), arity_range=(1, 3), seed=43)
    entry = hz._THEOREMS[theorem]
    seen = 0
    for i in range(cfg.count):
        args = entry.generate(cfg, instance_rng(cfg.seed, i), i)
        for m in (m for v in args.values() for m in _matrices(v)):
            seen += 1
            assert not {"_carried", "_eigensystem"} & m.__dict__.keys(), (theorem, i)
    assert seen > 0 or theorem == "EX1"


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
        t = gen_abelian_tuple(3, 4, uniform_cube(4, 0.0, 2.0), 64)
        members = [HermitianMatrix(m.entries) for m in t.members]
        norm_calls.clear()
        assert check_commuting(members)
        # one norm per member and one per commutator of the 6 pairs
        assert len(norm_calls) == 4 + 6
