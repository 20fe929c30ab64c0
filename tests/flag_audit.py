"""The flag audit: randomized probes of a ``CubeFunction``'s declared shape flags.

``harness.function_library`` declares each entry convex, concave or separately
increasing; the tests hold every declaration to :func:`verify_flags` and check
that the audit rejects each of :func:`mislabeled_controls`.
"""

import numpy as np

from opineq.abelian import Cube, CubeFunction


def mislabeled_controls(cube: Cube) -> list[CubeFunction]:
    """Deliberately wrong flag declarations; the audit must reject every one."""
    controls = [
        CubeFunction(
            "control-sumsq-as-concave", cube,
            lambda s: sum(v * v for v in s), concave=True,
        ),
        CubeFunction(
            "control-negsum-as-increasing", cube,
            lambda s: -sum(s), separately_increasing=True,
        ),
    ]
    if cube.arity >= 2:
        controls.append(
            CubeFunction("control-max-as-concave", cube, max, concave=True)
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
