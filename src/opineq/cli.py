"""Command line front end: seeded campaigns and one-off checks on matrix files.

Exit codes are a stable contract: 0 for a mathematical pass, 1 for a
mathematical failure, 2 when no verdict is reached (configuration or input
errors, or a numerical dead end in the eigensolver or the joint
diagonalization).  All randomness flows from --seed; omitting it selects
the fixed default 0, never entropy.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import verdict
from .abelian import AbelianTuple, Cube, JointDiagonalizationError
from .harness import (
    CampaignConfig,
    ConfigError,
    function_library,
    run_campaign,
)
from .linalg import (
    HermitianMatrix,
    JacobiConvergenceError,
    SpectrumDomainError,
    Tolerance,
    eig_hermitian,
    psd_margin,
)
from .majorization import kyfan_check, wmaj_verdict
from .means import SingularInputError, geometric_mean, geometric_mean_quadrature
from .pinching import check_mond_pecaric

_TOKEN = re.compile(r"\S+")

# numerical dead ends: no verdict was reached, so they exit 2, never 1
_NUMERICAL_ERRORS = (JacobiConvergenceError, JointDiagonalizationError)


class MatrixParseError(ValueError):
    """Malformed matrix file; carries the 1-based line and column of the problem."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InputMismatchError(ValueError):
    """Matrix files that parse but do not fit together, such as differing dimensions."""


@dataclass(frozen=True)
class ParsedMatrix:
    array: np.ndarray  # (rows, cols) complex
    role: str | None


def parse_matrix_text(text: str) -> ParsedMatrix:
    """Parse the structured matrix format.

    Header line ``dim: m`` (or ``dim: m k`` for rectangular frames and
    vectors), an optional ``role: label`` line, then m data rows of k
    ``re im`` decimal pairs.  Blank lines and ``#`` comments are skipped.
    """
    rows = cols = None
    role = None
    data: list[list[complex]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if rows is None:
            if not line.lower().startswith("dim:"):
                raise MatrixParseError("expected 'dim: <rows> [cols]' header", lineno)
            parts = line[4:].split()
            if len(parts) not in (1, 2):
                raise MatrixParseError("dim header takes one or two integers", lineno, 5)
            try:
                rows = int(parts[0])
                cols = int(parts[1]) if len(parts) == 2 else rows
            except ValueError:
                raise MatrixParseError("dimensions must be integers", lineno, 5) from None
            if rows < 1 or cols < 1:
                raise MatrixParseError("dimensions must be positive", lineno, 5)
            continue
        if line.lower().startswith("role:") and not data:
            role = line[5:].strip()
            continue
        if len(data) >= rows:
            raise MatrixParseError(f"expected {rows} data rows, found more", lineno)
        tokens = list(_TOKEN.finditer(raw))
        if len(tokens) != 2 * cols:
            col = tokens[-1].start() + 1 if tokens else 1
            raise MatrixParseError(
                f"expected {2 * cols} numbers (re im pairs), found {len(tokens)}", lineno, col
            )
        values = []
        for tok in tokens:
            try:
                value = float(tok.group())
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # float() also takes nan, inf and overflowing decimals
                raise MatrixParseError(f"bad decimal {tok.group()!r}", lineno, tok.start() + 1)
            values.append(value)
        data.append([complex(r, i) for r, i in zip(values[::2], values[1::2])])
    if rows is None:
        raise MatrixParseError("empty file: missing 'dim:' header", 1)
    if len(data) != rows:
        raise MatrixParseError(f"expected {rows} data rows, found {len(data)}", 1)
    return ParsedMatrix(np.asarray(data, dtype=complex), role)


def parse_matrix_file(path: str | Path) -> ParsedMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}", 1) from None
    return parse_matrix_text(text)


def load_hermitian(path: str | Path) -> HermitianMatrix:
    parsed = parse_matrix_file(path)
    if parsed.array.shape[0] != parsed.array.shape[1]:
        raise MatrixParseError(f"{path}: Hermitian input must be square", 1)
    return HermitianMatrix(parsed.array)


def load_hermitians(paths) -> list[HermitianMatrix]:
    """Load Hermitian inputs that must share one dimension."""
    members = [load_hermitian(p) for p in paths]
    dims = [m.dim for m in members]
    if len(set(dims)) > 1:
        raise InputMismatchError(f"dimension mismatch: {' vs '.join(map(str, dims))}")
    return members


def load_vector(path: str | Path) -> np.ndarray:
    parsed = parse_matrix_file(path)
    arr = parsed.array
    if 1 not in arr.shape:
        raise MatrixParseError(f"{path}: expected a vector (one row or one column)", 1)
    return arr.reshape(-1)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    v = int(text)
    return v, v


def _print_ex1_table(report) -> None:
    header = f"{'idx':>4} {'c':>6} {'t':>8} {'lam':>9}  order  pinch!<=  tr-id  tr-mono  overall"
    print(header)
    for rec in report.verdicts:
        p, cl = rec["params"], rec["claims"]
        fmt = lambda v: "  -  " if v is None else ("  ok " if v else " FAIL")
        print(
            f"{rec['index']:>4} {p['c']:>6.3f} {p['t']:>8.4f} {p['lam']:>9.4f} "
            f"{fmt(cl['order_strict'])} {fmt(cl['pinch_square_not_dominated']):>9} "
            f"{fmt(cl['trace_square_identity'])} {fmt(cl['trace_monotone']):>8} "
            f"{rec['status']:>8}"
        )


def cmd_campaign(args) -> int:
    try:
        tol = Tolerance(rtol=args.rtol)
        cfg = CampaignConfig(
            theorem=args.theorem.upper(),
            count=args.count,
            dim_range=_parse_range(args.dim),
            arity_range=_parse_range(args.arity),
            seed=args.seed,
            tol=tol,
            functions=tuple(args.functions.split(",")) if args.functions else None,
        )
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_campaign(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else Path(f"report-{cfg.theorem}-seed{cfg.seed}.json")
    try:
        out.write_text(report.to_json(indent=2) + "\n")
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 2
    if args.sweep and cfg.theorem == "EX1":
        _print_ex1_table(report)
    s = report.summary
    print(
        f"{cfg.theorem}: {cfg.count} instances | pass {s['pass']} fail {s['fail']} "
        f"invalid {s['invalid']} near-equality {s['near_equality']} | "
        f"min gap {s['min_gap']} | report {out}"
    )
    return 0 if s["fail"] == 0 else 1


def _verdict_exit(v, label: str) -> int:
    if v.invalid:
        print(f"{label}: invalid input ({v.detail.get('reason', '')})")
        return 2
    print(f"{label}: {v.status} gap={v.gap:.6g}")
    return 0 if v.passed else 1


def _check_loewner(args, tol) -> int:
    a, b = load_hermitians(args.files)
    return _verdict_exit(verdict.from_gap(*psd_margin(eig_hermitian(b - a), tol)), "loewner")


def _check_wmaj(args, tol) -> int:
    a, b = load_hermitians(args.files)
    return _verdict_exit(wmaj_verdict(a, b, tol), "wmaj")


def _check_gmean(args, tol) -> int:
    x, y = load_hermitians(args.files)
    try:
        gm = geometric_mean(x, y, tol)
    except SpectrumDomainError as exc:
        print(f"gmean: invalid input ({exc})")
        return 2
    if not args.oracle:
        print(f"gmean: pass norm={gm.norm():.6g}")
        for row in gm.entries:
            print("  " + "  ".join(f"{v.real:+.9g} {v.imag:+.9g}" for v in row))
        return 0
    try:
        gq = geometric_mean_quadrature(x, y, tol)
    except SingularInputError as exc:
        print(f"gmean: invalid input ({exc})")
        return 2
    dev = (gm - gq).norm()
    bound = 1e-6 * (1.0 + gm.norm())
    ok = dev <= bound
    print(f"gmean: {'pass' if ok else 'fail'} oracle-deviation={dev:.3e} bound={bound:.3e}")
    return 0 if ok else 1


def _check_jensen(args, tol) -> int:
    members = load_hermitians(args.files)
    try:
        t = AbelianTuple(tuple(members), tol)
    except ValueError:
        print("jensen: invalid input (matrices do not commute)")
        return 2
    intervals = []
    for m in members:
        es = eig_hermitian(m)
        intervals.append((es.lambda_min, es.lambda_max))
    cube = Cube(tuple(intervals))
    pool = {f.name: f for f in function_library(t.n, cube)}
    if args.function not in pool:
        print(
            f"jensen: invalid input (function {args.function!r} unavailable on the "
            f"spectral cube; choices: {sorted(pool)})"
        )
        return 2
    if args.xi:
        xi = load_vector(args.xi).astype(complex)
        if xi.shape[0] != t.dim:
            print("jensen: invalid input (xi dimension mismatch)")
            return 2
        nrm = np.linalg.norm(xi)
        if abs(nrm - 1.0) > tol.rtol:
            print(f"jensen: invalid input (xi has norm {nrm:.6g}, need a unit vector)")
            return 2
    else:
        xi = np.zeros(t.dim, dtype=complex)
        xi[0] = 1.0
    return _verdict_exit(check_mond_pecaric(pool[args.function], t, xi, tol), "jensen")


def _check_kyfan(args, tol) -> int:
    a = load_hermitian(args.files[0])
    frame = parse_matrix_file(args.files[1]).array
    return _verdict_exit(kyfan_check(a, frame, tol), "kyfan")


_CHECKS = {
    "loewner": (_check_loewner, 2),
    "wmaj": (_check_wmaj, 2),
    "gmean": (_check_gmean, 2),
    "jensen": (_check_jensen, None),  # one or more tuple members
    "kyfan": (_check_kyfan, 2),
}


def cmd_check(args) -> int:
    handler, nfiles = _CHECKS[args.name]
    if nfiles is not None and len(args.files) != nfiles:
        print(f"check {args.name} takes exactly {nfiles} matrix files", file=sys.stderr)
        return 2
    if nfiles is None and not args.files:
        print(f"check {args.name} needs at least one matrix file", file=sys.stderr)
        return 2
    try:
        tol = Tolerance(rtol=args.rtol)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return handler(args, tol)
    except MatrixParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InputMismatchError as exc:
        print(f"{args.name}: invalid input ({exc})")
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opineq",
        description="Randomized numerical verification of trace and operator inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    camp = sub.add_parser("campaign", help="run a seeded verification campaign")
    camp.add_argument("--theorem", required=True, help="one of T1..T6, COR, LH, KF, EX1, CHAIN")
    camp.add_argument("--count", type=int, default=100)
    camp.add_argument("--dim", default="2..6", help="dimension range, e.g. 2..6 or 4")
    camp.add_argument("--arity", default="1..3", help="tuple arity range, e.g. 2..4")
    camp.add_argument("--seed", type=int, default=0, help="campaign seed (default 0, fixed)")
    camp.add_argument("--rtol", type=float, default=1e-9)
    camp.add_argument("--functions", default=None, help="comma-separated sweep of function names")
    camp.add_argument("--out", default=None, help="report path (JSON)")
    camp.add_argument("--sweep", action="store_true", help="print the per-instance table (EX1)")
    camp.set_defaults(func=cmd_campaign)

    chk = sub.add_parser("check", help="run one check on matrix files")
    chk.add_argument("name", choices=sorted(_CHECKS))
    chk.add_argument("files", nargs="*", help="matrix files")
    chk.add_argument("--oracle", action="store_true", help="gmean: compare against quadrature")
    chk.add_argument("--function", default="sum-of-squares", help="jensen: library function name")
    chk.add_argument("--xi", default=None, help="jensen: unit-vector file (default e_1)")
    chk.add_argument("--rtol", type=float, default=1e-9)
    chk.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
