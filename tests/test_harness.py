"""Tests for generators, the function library and its audit, and campaign plumbing."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from opineq import verdict
from opineq.abelian import (
    Cube,
    check_commuting,
    check_compatible,
    spectrum_in_cube,
    uniform_cube,
)
from opineq import harness as hz
from opineq.harness import (
    THEOREM_IDS,
    CampaignConfig,
    CampaignReport,
    ConfigError,
    function_library,
    gen_abelian_tuple,
    gen_centralizer_pair,
    gen_compatible_pair,
    gen_dominated_pair,
    gen_tuple_field,
    gen_unital_field,
    instance_rng,
    replay_instance,
    run_campaign,
)
from opineq.linalg import DEFAULT_TOL, JacobiConvergenceError, diagonal, eig_hermitian, matrix_power
from opineq.means import check_lowner_heinz

from flag_audit import mislabeled_controls, verify_flags


class TestFromGap:
    def test_nan_gap_or_slack_is_invalid(self):
        # a NaN compares False either way, so it must not reach the pass/fail test
        for gap, slack in [(math.nan, 1e-9), (-1.0, math.nan), (math.nan, math.nan)]:
            v = verdict.from_gap(gap, slack, k=1)
            assert v.invalid and v.detail["k"] == 1, (gap, slack)

    def test_no_links_still_pass(self):
        assert verdict.from_gap(math.inf, 0.0).passed
        assert verdict.from_gap(-2e-9, 1e-9).status == "fail"


class TestGenerators:
    def test_abelian_tuple_scalar_dim(self):
        t = gen_abelian_tuple(1, uniform_cube(2, 0, 1), seed=3)
        assert t.dim == 1 and t.n == 2
        assert spectrum_in_cube(t, uniform_cube(2, 0, 1))

    def test_abelian_tuple_deterministic(self):
        cube = uniform_cube(3, 0, 1)
        a = gen_abelian_tuple(4, cube, seed=9)
        b = gen_abelian_tuple(4, cube, seed=9)
        for ma, mb in zip(a.members, b.members):
            assert np.array_equal(ma.entries, mb.entries)

    def test_abelian_tuple_eigenvalues_in_cube(self):
        cube = uniform_cube(3, 0, 1)
        t = gen_abelian_tuple(4, cube, seed=1)
        for m in t.members:
            lam = eig_hermitian(m).eigenvalues
            assert np.all(lam >= -1e-12) and np.all(lam <= 1 + 1e-12)

    def test_dominated_pair_order_and_commutation(self):
        from opineq.abelian import commutator_norm

        lo, hi = 0.0, 2.0
        for seed in range(20):
            x, y = gen_dominated_pair(2 + seed % 5, uniform_cube(2, lo, hi), seed=seed)
            assert check_commuting(x.members) and check_commuting(y.members)
            # range separation: y_i - x_i >= 0.1 (hi - lo) I, no audit needed
            for a, b in zip(x.members, y.members):
                assert eig_hermitian(b - a).lambda_min >= 0.1 * (hi - lo) - 1e-12
            # cross-commutators are generically nonzero (independent bases)
            assert commutator_norm(x.members[0], y.members[0]) > 1e-6

    def test_dominated_pair_per_interval_ranges(self):
        # x fills the lower 30% and y the upper 60% of each member's own interval
        cube = Cube(((0.0, 1.0), (10.0, 20.0), (-4.0, -2.0)))
        for seed in range(10):
            x, y = gen_dominated_pair(3, cube, seed=seed)
            for a, b, (lo, hi) in zip(x.members, y.members, cube.intervals):
                slack = 1e-12 * (1.0 + abs(lo) + abs(hi))
                cut_x, cut_y = lo + 0.3 * (hi - lo), lo + 0.4 * (hi - lo)
                for m, (m_lo, m_hi) in ((a, (lo, cut_x)), (b, (cut_y, hi))):
                    es = eig_hermitian(m)
                    assert m_lo - slack <= es.lambda_min and es.lambda_max <= m_hi + slack

    def test_dominated_pair_precondition_audit(self):
        from opineq.means import check_trace_power_monotone
        from opineq.state import DiagonalState

        for i in range(1000):
            x, y = gen_dominated_pair(3, uniform_cube(2, 0, 2), seed=i)
            v = check_trace_power_monotone(x, y, (1.0, 2.0), DiagonalState.uniform(3))
            assert not v.invalid

    def test_dominated_pair_needs_headroom(self):
        with pytest.raises(ValueError):
            gen_dominated_pair(2, uniform_cube(1, 1.0, 1.0), seed=0)

    def test_centralizer_pair_commutes_with_state(self):
        x, y, rho = gen_centralizer_pair(uniform_cube(2, 0.0, 2.0), (2, 2), seed=7)
        rm = rho.matrix().entries
        for m in list(x.members) + list(y.members):
            assert np.linalg.norm(rm @ m.entries - m.entries @ rm) < 1e-12

    def test_centralizer_single_block_is_uniform_state(self):
        x, y, rho = gen_centralizer_pair(uniform_cube(2, 0.0, 2.0), (3,), seed=8)
        assert np.allclose(rho.weights, rho.weights[0])

    def test_centralizer_unit_blocks_all_diagonal(self):
        x, y, rho = gen_centralizer_pair(uniform_cube(2, 0.0, 2.0), (1, 1, 1), seed=9)
        for m in x.members:
            off = m.entries - np.diag(np.diag(m.entries))
            assert np.linalg.norm(off) < 1e-12

    def test_centralizer_bad_partition(self):
        cube = uniform_cube(2, 0.0, 2.0)
        for blocks in ((3, 0), (2, -1), ()):
            with pytest.raises(ValueError):
                gen_centralizer_pair(cube, blocks, seed=0)

    def test_centralizer_dimension_is_block_sum(self):
        x, y, rho = gen_centralizer_pair(uniform_cube(3, 0.0, 2.0), (2, 1, 3), seed=10)
        assert x.dim == y.dim == rho.dim == 6 and x.n == y.n == 3

    def test_unital_field_kinds(self):
        for kind, count in (("generic", 3), ("diagonal", 2), ("unitary", 1), ("probability", 4)):
            f = gen_unital_field(3, count, seed=11, kind=kind)
            gram = sum(w * a.conj().T @ a for w, a in zip(f.weights, f.matrices))
            assert np.linalg.norm(gram - np.eye(3)) <= 1e-10

    def test_tuple_field_shares_shape(self):
        tf = gen_tuple_field(3, 4, uniform_cube(2, 0, 1), seed=12)
        assert tf.count == 4 and tf.n == 2 and tf.dim == 3

    def test_compatible_pair_construction(self):
        x, y = gen_compatible_pair(3, uniform_cube(2, 0, 2), seed=13)
        assert check_compatible(x, y)

    def test_compatible_rejection_trivial_case(self):
        # independent draws of one variable are always compatible
        rng = np.random.default_rng(14)
        x, y = (gen_abelian_tuple(2, uniform_cube(1, 0, 1), rng) for _ in range(2))
        assert check_compatible(x, y)

    @pytest.mark.parametrize("dim, k", [(1, 1), (2, 1), (5, 3), (8, 8), (16, 7)])
    def test_random_frame_is_orthonormal(self, dim, k):
        for seed in range(20):
            u = hz.random_frame(dim, k, np.random.default_rng(seed))
            assert u.shape == (dim, k)
            assert np.linalg.norm(u.conj().T @ u - np.eye(k)) <= 1e-14

    def test_compatible_rejection_exhausts_budget(self):
        # compatibility is measure-zero for independent bases once n >= 2
        cube = uniform_cube(2, 0, 1)
        rng = np.random.default_rng(15)
        for _ in range(25):
            x, y = gen_abelian_tuple(3, cube, rng), gen_abelian_tuple(3, cube, rng)
            assert not check_compatible(x, y)


class TestFunctionLibrary:
    def test_all_flags_audited(self):
        for n in (1, 2, 3, 4):
            for lo in (0.05, 0.0, -1.0):
                cube = uniform_cube(n, lo, 2.0)
                for f in function_library(cube):
                    assert verify_flags(f, samples=300, seed=17), f.name

    def test_positive_cube_extends_library(self):
        names = {f.name for f in function_library(uniform_cube(2, 0.05, 2))}
        assert {"geometric-mean", "square-of-sum", "neg-log-product"} <= names
        names_signed = {f.name for f in function_library(uniform_cube(2, -1, 2))}
        assert "geometric-mean" not in names_signed

    def test_affine_is_both_convex_and_concave(self):
        f = next(f for f in function_library(uniform_cube(2, 0, 1)) if f.name == "affine")
        assert f.convex and f.concave and f.separately_increasing

    def test_controls_rejected_every_run(self):
        for n in (1, 2, 3):
            cube = uniform_cube(n, 0.0, 2.0)
            for ctl in mislabeled_controls(cube):
                for seed in range(5):
                    assert not verify_flags(ctl, samples=200, seed=seed), ctl.name

    def test_square_declared_concave_rejected(self):
        from opineq.abelian import CubeFunction

        f = CubeFunction("sq", uniform_cube(1, -1, 1), lambda s: s[0] ** 2, concave=True)
        assert not verify_flags(f, samples=150, seed=0)

    def test_max_declared_increasing_passes(self):
        from opineq.abelian import CubeFunction

        f = CubeFunction("max", uniform_cube(2, -1, 1), max, separately_increasing=True)
        assert verify_flags(f, samples=150, seed=0)

    def test_sample_floor_enforced(self):
        f = function_library(uniform_cube(1, 0, 1))[0]
        with pytest.raises(ValueError):
            verify_flags(f, samples=50)


class TestCampaignConfig:
    def test_rejects_zero_count(self):
        with pytest.raises(ConfigError):
            CampaignConfig("T2", 0)

    def test_rejects_unknown_theorem(self):
        with pytest.raises(ConfigError):
            CampaignConfig("T9", 10)

    def test_rejects_empty_range(self):
        with pytest.raises(ConfigError):
            CampaignConfig("T2", 10, dim_range=(4, 2))


class TestCampaigns:
    def test_deterministic_reports(self):
        cfg = CampaignConfig("KF", 40, dim_range=(2, 8), seed=23)
        a = run_campaign(cfg).to_json()
        b = run_campaign(cfg).to_json()
        da, db = json.loads(a), json.loads(b)
        da.pop("wall_time_s"), db.pop("wall_time_s")
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)

    def test_counts_add_up(self):
        rep = run_campaign(CampaignConfig("T5", 60, dim_range=(2, 4), seed=3))
        s = rep.summary
        assert s["pass"] + s["fail"] + s["invalid"] == 60

    def test_all_theorems_clean_at_small_count(self):
        for theorem in ("T1", "T2", "T3", "T4", "T5", "T6", "COR", "LH", "KF", "EX1", "CHAIN"):
            rep = run_campaign(
                CampaignConfig(theorem, 15, dim_range=(2, 5), arity_range=(1, 3), seed=5)
            )
            assert rep.summary["fail"] == 0, (theorem, rep.failures)
            assert rep.summary["invalid"] == 0, theorem

    def test_function_sweep_filter(self):
        cfg = CampaignConfig("T6", 10, seed=1, functions=("max",))
        rep = run_campaign(cfg)
        assert all(r["function"] == "max" for r in rep.verdicts)

    def test_unmatched_sweep_is_config_error(self):
        with pytest.raises(ConfigError):
            run_campaign(CampaignConfig("T6", 5, seed=1, functions=("no-such-function",)))

    def test_every_library_name_is_a_known_function(self):
        # a misspelt name is a config error (tests/test_cli.py); a real one is
        # accepted by every id that can pick it
        names = tuple(f.name for f in function_library(uniform_cube(2, 0.5, 3.0)))
        accepted = set()
        for theorem in ("T1", "T3", "T4", "T5", "T6", "COR"):
            picks = {f.name for f in hz._pickable(theorem, hz._function_cube(theorem, 2))}
            for name in names:
                try:
                    assert CampaignConfig(theorem, 5, functions=(name,)).functions == (name,)
                    accepted.add(name)
                except ConfigError as exc:
                    assert name not in picks
                    assert str(exc).startswith(f"{theorem} cannot pick ['{name}']")
        # every library function is convex or concave, so some id picks it
        assert accepted == set(names)

    @pytest.mark.parametrize("theorem", ["T2", "LH", "KF", "EX1", "CHAIN"])
    def test_function_list_for_an_id_that_picks_none_is_config_error(self, theorem):
        with pytest.raises(ConfigError, match=f"^{theorem} picks no library function"):
            CampaignConfig(theorem, 5, functions=("max",))

    @pytest.mark.parametrize(
        "theorem, functions, never",
        [
            ("T1", ("affine", "max"), ["max"]),  # max is not concave
            ("T6", ("max", "sum-of-squares"), ["sum-of-squares"]),  # not increasing
            ("COR", ("neg-log-product",), ["neg-log-product"]),  # not on COR's cube [0, 2]
            ("T3", ("geometric-mean",), ["geometric-mean"]),  # concave, not convex
        ],
    )
    def test_name_the_id_cannot_pick_is_config_error(self, theorem, functions, never):
        with pytest.raises(ConfigError, match=re.escape(f"{theorem} cannot pick {never}")):
            CampaignConfig(theorem, 5, functions=functions)

    def test_every_listed_name_is_picked(self):
        # the config admits a list only if each name can be picked, so a
        # campaign over it runs every name it echoes
        for theorem, names in (("T1", ("affine", "geometric-mean")), ("COR", ("affine", "max"))):
            rep = run_campaign(CampaignConfig(theorem, 40, seed=3, functions=names))
            assert rep.config["functions"] == list(names)
            assert {r["function"] for r in rep.verdicts} == set(names)

    def test_empty_function_list_is_config_error(self):
        with pytest.raises(ConfigError, match=re.escape("T6 cannot pick []")):
            CampaignConfig("T6", 5, functions=())

    def test_failure_records_replay_identically(self, monkeypatch):
        # force failures by breaking the checked inequality's sign inside the
        # runner, then confirm the serialized instances replay deterministically
        import opineq.harness as hz

        real = hz.kyfan_check

        def broken(a, u, tol=DEFAULT_TOL):
            v = real(a, u, tol)
            return verdict.Verdict("fail", v.gap, v.detail)

        monkeypatch.setattr(hz, "kyfan_check", broken)
        rep = run_campaign(CampaignConfig("KF", 10, dim_range=(2, 6), seed=31))
        assert rep.summary["fail"] == 10
        monkeypatch.undo()
        for rec in rep.failures:
            v = replay_instance(rec["instance"])
            assert v.passed
            assert abs(v.gap - rec["gap"]) <= 1e-12 * (1 + abs(v.gap))

    @pytest.mark.parametrize("theorem", THEOREM_IDS)
    def test_every_instance_replays_exactly(self, theorem):
        # encode every instance, not only failures, and replay it through JSON
        cfg = CampaignConfig(theorem, 8, dim_range=(2, 5), arity_range=(1, 3), seed=41)
        entry = hz._THEOREMS[theorem]
        for rec in run_campaign(cfg).verdicts:
            i = rec["index"]
            args = entry.generate(cfg, instance_rng(cfg.seed, i), i)
            instance = json.loads(json.dumps({"theorem": theorem, **entry.encode(args)}))
            v = replay_instance(instance, cfg.tol)
            assert (v.status, v.gap) == (rec["status"], rec["gap"]), (theorem, i)

    def test_function_payload_arity_must_match_its_cube(self):
        cfg = CampaignConfig("T6", 1, arity_range=(2, 2), seed=31)
        entry = hz._THEOREMS["T6"]
        instance = {"theorem": "T6", **entry.encode(entry.generate(cfg, instance_rng(cfg.seed, 0), 0))}
        assert instance["function"]["arity"] == 2
        replay_instance(instance)
        instance["function"]["arity"] = 3
        with pytest.raises(ValueError, match="arity"):
            replay_instance(instance)

    def test_non_finite_payload_is_a_numerical_dead_end(self):
        # a NaN entry has no spectrum; the kernel says so instead of dividing by zero
        cfg = CampaignConfig("LH", 1, seed=37)
        entry = hz._THEOREMS["LH"]
        instance = {"theorem": "LH", **entry.encode(entry.generate(cfg, instance_rng(cfg.seed, 0), 0))}
        instance["x"]["re"][0][0] = float("nan")
        with pytest.raises(JacobiConvergenceError, match="norm not finite"):
            replay_instance(instance)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_state_weight_is_rejected_not_confirmed(self, bad):
        # the state used to build, and the T4 replay passed
        cfg = CampaignConfig("T4", 1, seed=17)
        entry = hz._THEOREMS["T4"]
        instance = {"theorem": "T4", **entry.encode(entry.generate(cfg, instance_rng(cfg.seed, 0), 0))}
        assert replay_instance(instance).passed
        instance["rho"][0] = bad
        with pytest.raises(ValueError, match="weights must be nonnegative and finite"):
            replay_instance(instance)

    def test_ex1_decomposes_each_matrix_once(self, eig_calls):
        # y - x and y^2 - pinch(x^2) per instance; the gap reuses order_margin
        run_campaign(CampaignConfig("EX1", 10, seed=7))
        assert len(eig_calls) == 20

    def test_lh_tests_the_order_once_per_pair(self, jacobi_runs):
        # x, y - x and y, then y^alpha - x^alpha at the four alphas below 1;
        # at alpha 1 the difference is y - x itself
        cfg = CampaignConfig("LH", 1, dim_range=(3, 3), seed=5)
        rep = run_campaign(cfg)
        assert rep.summary["pass"] == 1
        runs = [a.entries.tobytes() for a in jacobi_runs]
        args = hz._THEOREMS["LH"].generate(cfg, instance_rng(cfg.seed, 0), 0)
        x, y = args["x"], args["y"]
        powers = [matrix_power(y, a) - matrix_power(x, a) for a in hz.LH_ALPHAS if a < 1.0]
        assert runs == [a.entries.tobytes() for a in (x, y - x, y, *powers)]

    def test_t1_applies_f_once_per_tuple(self, monkeypatch):
        # the chain's first link is the pinching-Jensen inequality, so T1 runs
        # the chain alone: f(x) and f(y), never a second f(x)
        from opineq import pinching

        real = pinching.apply_cube_function
        calls = []

        def counted(f, t, tol=DEFAULT_TOL):
            calls.append(t)
            return real(f, t, tol)

        monkeypatch.setattr(pinching, "apply_cube_function", counted)
        rep = run_campaign(CampaignConfig("T1", 10, dim_range=(2, 5), arity_range=(1, 3), seed=19))
        assert rep.summary["pass"] == 10
        assert len(calls) == 20
        assert len({id(t) for t in calls}) == 20

    def test_lh_invalid_reason_is_stated_once(self):
        v = check_lowner_heinz(diagonal([2, 0]), diagonal([1, 1]), hz.LH_ALPHAS)
        assert v.detail["reason"] == "x <= y fails"

    def test_ex1_records_carry_parameters(self):
        rep = run_campaign(CampaignConfig("EX1", 5, seed=2))
        for rec in rep.verdicts:
            assert {"c", "t", "lam"} <= set(rec["params"])
            assert rec["claims"]["trace_square_identity"] is True

    def test_near_equality_flagged_for_affine(self):
        rep = run_campaign(
            CampaignConfig("T3", 20, dim_range=(2, 4), arity_range=(1, 2), seed=6,
                           functions=("affine",))
        )
        assert rep.summary["near_equality"] == 20

    def test_instance_rng_streams_are_independent(self):
        a = instance_rng(9, 0).standard_normal(4)
        b = instance_rng(9, 1).standard_normal(4)
        assert not np.allclose(a, b)
        again = instance_rng(9, 0).standard_normal(4)
        assert np.array_equal(a, again)

    def test_report_json_round_trip(self):
        rep = run_campaign(CampaignConfig("CHAIN", 8, dim_range=(2, 4), seed=12))
        back = CampaignReport.from_json(rep.to_json(indent=2))
        assert back.summary == rep.summary
        assert back.verdicts == rep.verdicts


# Summary counts of 30 instances per id, printed as JSON by a child process.
_COUNTS_SCRIPT = """
import json
from opineq.harness import THEOREM_IDS, CampaignConfig, run_campaign
counts = {}
for theorem in THEOREM_IDS:
    cfg = CampaignConfig(theorem, 30, dim_range=(2, 6), arity_range=(1, 3), seed=3)
    s = run_campaign(cfg).summary
    counts[theorem] = [s[k] for k in ("pass", "fail", "invalid", "near_equality")]
print(json.dumps(counts))
"""


def test_verdict_counts_do_not_depend_on_the_blas_kernel():
    # Kernel bits follow OpenBLAS's zgemm microkernel, so report bytes are
    # reproducible on one BLAS build only; the verdicts must not move.  The
    # default kernel runs against the SSE3 (Prescott) one; other BLAS
    # libraries ignore the variable and run the same kernel twice.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    children = [
        subprocess.Popen([sys.executable, "-c", _COUNTS_SCRIPT], env=child_env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for child_env in (env, {**env, "OPENBLAS_CORETYPE": "Prescott"})
    ]
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        outputs.append(json.loads(out.strip().splitlines()[-1]))
    default, prescott = outputs
    assert set(default) == set(THEOREM_IDS)
    assert default == prescott
