"""Span tracer that times opineq's public functions from outside the package.

``Tracer.install`` replaces every function named in ``LAYERS``, in every
loaded ``opineq`` module that binds it (``from .linalg import eig_hermitian``
makes a separate binding in each importing module), by a wrapper that records
a span.  Function-local imports such as ``from .linalg import loewner_leq``
read the ``opineq.linalg`` attribute at call time, so they get the wrapper
too.  ``uninstall`` puts every original object back.  Nothing under ``src/``
is edited.

A span is ``(name, start, end, parent index, call id, extra)``.  Spans stay in
memory until the run ends; self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("eig_hermitian", "loewner_leq", "matrix_power", "hermitian_function"),
    "abelian": (
        "joint_diagonalize",
        "apply_cube_function",
        "spectrum_in_cube",
        "check_commuting",
        "check_compatible",
    ),
    "means": (
        "geometric_mean",
        "geometric_mean_quadrature",
        "check_lowner_heinz",
        "check_trace_power_monotone",
        "root_product_chain",
    ),
    "pinching": (
        "compress",
        "build_mu_xi",
        "check_jensen_expectation",
        "check_mond_pecaric",
        "check_phi_jensen_field",
        "check_phi_concave_jensen",
        "check_phi_monotone_chain",
        "reproduce_example1",
    ),
    "majorization": (
        "partial_sums",
        "weak_majorize",
        "kyfan_check",
        "check_thm5",
        "check_thm6",
        "check_corollary",
    ),
    "state": ("pinch", "state_trace"),
    "harness": ("run_campaign",),
}

# Instance generation is reported as one layer: every gen_* plus these helpers.
GENERATORS = ("random_unitary", "random_frame")
GENERATE = "harness.generate"
TO_JSON = "harness.to_json"
RUN_CAMPAIGN = "harness.run_campaign"
EIG = "linalg.eig_hermitian"
JOINT = "abelian.joint_diagonalize"

# Dimensions reported as linalg.eig_hermitian.us_per_call.d<m>: every
# dimension the workloads reach (KF goes to 8, large-dim covers 10..16).
EIG_DIMS = tuple(range(1, 9)) + tuple(range(10, 17))


def _extra(name):
    """What a span keeps of its arguments, beyond timing."""
    if name == EIG:
        return lambda args: args[0]  # the matrix; hashed and dropped at the call's end
    if name == JOINT:
        return lambda args: args[0].n
    if name == RUN_CAMPAIGN:
        return lambda args: (args[0].theorem, args[0].count)
    return None


class Tracer:
    """Records spans for the calls into opineq's layers while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.call_id = 0
        self.eig_repeats = 0
        self._stack: list[int] = []
        self._call_start = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        harness = sys.modules["opineq.harness"]
        for module, names in LAYERS.items():
            for fname in names:
                yield f"{module}.{fname}", sys.modules[f"opineq.{module}"], fname
        gens = sorted(n for n in vars(harness) if n.startswith("gen_")) + list(GENERATORS)
        for fname in gens:
            yield GENERATE, harness, fname

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "opineq" or n.startswith("opineq.")]
        for span_name, home, fname in self._targets():
            original = getattr(home, fname)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        report_cls = sys.modules["opineq.harness"].CampaignReport
        to_json = report_cls.__dict__["to_json"]
        self._restore.append((report_cls, "to_json", to_json))
        report_cls.to_json = self._wrap(TO_JSON, to_json)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        extra = _extra(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (
                    name, t0, t1, parent, self.call_id, extra(args) if extra else None
                )

        return traced

    # -- call boundaries --------------------------------------------------

    def new_call(self) -> None:
        """Close the current campaign call (or oracle pair) and open the next.

        Closing hashes the ``entries.tobytes()`` of every matrix decomposed in
        the call to count repeats, then keeps only its dimension.  This runs
        between spans, so its cost shows as tracing overhead, not layer time.
        """
        seen = set()
        spans = self.spans
        for i in range(self._call_start, len(spans)):
            name, t0, t1, parent, call, a = spans[i]
            if name == EIG:
                key = a.entries.tobytes()
                if key in seen:
                    self.eig_repeats += 1
                seen.add(key)
                spans[i] = (name, t0, t1, parent, call, a.dim)
        self._call_start = len(spans)
        self.call_id += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer counts and self times over the spans of ``wall_s`` traced seconds."""
        self.new_call()
        spans = self.spans
        covered = [0.0] * len(spans)
        eig_children = [0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
                if name == EIG:
                    eig_children[parent] += 1
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        dim_calls: dict = defaultdict(int)
        dim_time: dict = defaultdict(float)
        campaign_n: dict = defaultdict(int)
        campaign_s: dict = defaultdict(float)
        joint_multi = joint_first_try = 0
        for i, (name, t0, t1, parent, _, extra) in enumerate(spans):
            calls[name] += 1
            self_s[name] += t1 - t0 - covered[i]
            if name == EIG:
                dim_calls[extra] += 1
                dim_time[extra] += t1 - t0
            elif name == JOINT and extra >= 2:
                joint_multi += 1
                joint_first_try += eig_children[i] == 1
            elif name == RUN_CAMPAIGN:
                campaign_n[extra[0]] += extra[1]
                campaign_s[extra[0]] += t1 - t0

        out = {}
        names = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs if m != "harness"]
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        eig_calls = calls[EIG]
        out[f"{EIG}.share"] = self_s[EIG] / wall_s
        out[f"{EIG}.repeat_ratio"] = self.eig_repeats / eig_calls if eig_calls else 0.0
        for m in sorted(set(EIG_DIMS) | set(dim_calls)):
            n = dim_calls.get(m, 0)
            out[f"{EIG}.us_per_call.d{m}"] = 1e6 * dim_time[m] / n if n else 0.0
        out[f"{JOINT}.multi_calls"] = joint_multi
        out[f"{JOINT}.first_try_ratio"] = joint_first_try / joint_multi if joint_multi else 0.0
        for name in (GENERATE, RUN_CAMPAIGN, TO_JSON):
            out[f"{name}.self_s"] = self_s[name]
        for tid in sys.modules["opineq.harness"].THEOREM_IDS:
            s = campaign_s.get(tid, 0.0)
            out[f"harness.{tid}.instances_per_s"] = campaign_n[tid] / s if s else 0.0
        attributed = sum(self_s.values())
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - attributed
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, call id, extra."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
