"""Command line front end: seeded campaigns and one-off checks on matrix files.

Exit codes are a stable contract: 0 for a mathematical pass, 1 for a
mathematical failure, 2 when no verdict is reached.  Each check handler
returns a Verdict and ``_print_verdict`` turns it into a line and a code;
every error that reaches ``main`` exits 2 through its one table.  All
randomness flows from --seed; omitting it selects the fixed default 0.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import traceback
from pathlib import Path

import numpy as np

from . import verdict
from .abelian import AbelianTuple, Cube, JointDiagonalizationError, joint_diagonalize
from .harness import CampaignConfig, ConfigError, function_library, run_campaign
from .linalg import (
    HermitianMatrix,
    JacobiConvergenceError,
    SpectrumDomainError,
    Tolerance,
    eig_hermitian,
    psd_margin,
)
from .majorization import kyfan_check, wmaj_verdict
from .means import geometric_mean, geometric_mean_quadrature
from .pinching import check_mond_pecaric
from .verdict import Verdict

_TOKEN = re.compile(r"\S+")


class MatrixParseError(ValueError):
    """Malformed matrix file; carries the 1-based line and column of the problem."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InputMismatchError(ValueError):
    """Matrix files that parse but do not fit together, such as differing dimensions."""


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the structured matrix format into a ``(rows, cols)`` complex array.

    Header line ``dim: m`` (or ``dim: m k`` for rectangular frames and
    vectors), an optional ``role: label`` line (ignored), then m data rows
    of k ``re im`` decimal pairs.  Blank lines and ``#`` comments are skipped.
    """
    rows = cols = None
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
    return np.asarray(data, dtype=complex)


def parse_matrix_file(path: str | Path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise MatrixParseError(f"cannot read {path}: {exc}", 1) from None
    return parse_matrix_text(text)


def load_hermitian(path: str | Path) -> HermitianMatrix:
    arr = parse_matrix_file(path)
    if arr.shape[0] != arr.shape[1]:
        raise MatrixParseError(f"{path}: Hermitian input must be square", 1)
    return HermitianMatrix(arr)


def load_hermitians(paths) -> list[HermitianMatrix]:
    """Load Hermitian inputs that must share one dimension."""
    members = [load_hermitian(p) for p in paths]
    dims = [m.dim for m in members]
    if len(set(dims)) > 1:
        raise InputMismatchError(f"dimension mismatch: {' vs '.join(map(str, dims))}")
    return members


def load_vector(path: str | Path) -> np.ndarray:
    arr = parse_matrix_file(path)
    if 1 not in arr.shape:
        raise MatrixParseError(f"{path}: expected a vector (one row or one column)", 1)
    return arr.reshape(-1)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise ConfigError(f"range {text!r} is not an integer or lo..hi") from None


def _tolerance(rtol: float) -> Tolerance:
    try:
        return Tolerance(rtol=rtol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
    cfg = CampaignConfig(
        theorem=args.theorem.upper(),
        count=args.count,
        dim_range=_parse_range(args.dim),
        arity_range=_parse_range(args.arity),
        seed=args.seed,
        tol=_tolerance(args.rtol),
        functions=tuple(args.functions.split(",")) if args.functions else None,
    )
    if args.sweep and cfg.theorem != "EX1":
        raise ConfigError(f"--sweep prints the EX1 table; {cfg.theorem} has none")
    report = run_campaign(cfg)
    out = Path(args.out) if args.out else Path(f"report-{cfg.theorem}-seed{cfg.seed}.json")
    out.write_text(report.to_json(indent=2) + "\n")
    if args.sweep:
        _print_ex1_table(report)
    s = report.summary
    print(
        f"{cfg.theorem}: {cfg.count} instances | pass {s['pass']} fail {s['fail']} "
        f"invalid {s['invalid']} near-equality {s['near_equality']} | "
        f"min gap {s['min_gap']} | report {out}"
    )
    return 0 if s["fail"] == 0 else 1


def _check_loewner(args, tol) -> Verdict:
    a, b = load_hermitians(args.files)
    return verdict.from_gap(*psd_margin(eig_hermitian(b - a), tol))


def _check_wmaj(args, tol) -> Verdict:
    return wmaj_verdict(*load_hermitians(args.files), tol)


def _check_gmean(args, tol) -> Verdict:
    """The mean's matrix, or its deviation from the oracle; the verdict carries its ``line``."""
    x, y = load_hermitians(args.files)
    gm = geometric_mean(x, y, tol)
    if not args.oracle:
        rows = ["  " + "  ".join(f"{v.real:+.9g} {v.imag:+.9g}" for v in row) for row in gm.entries]
        line = "\n".join([f"gmean: pass norm={gm.norm():.6g}", *rows])
        return Verdict(verdict.PASS, None, {"line": line})
    dev = (gm - geometric_mean_quadrature(x, y, tol)).norm()
    bound = 1e-6 * (1.0 + gm.norm())
    status = verdict.PASS if dev <= bound else verdict.FAIL
    line = f"gmean: {status} oracle-deviation={dev:.3e} bound={bound:.3e}"
    return Verdict(status, bound - dev, {"line": line})


def _check_jensen(args, tol) -> Verdict:
    members = load_hermitians(args.files)
    try:
        t = AbelianTuple(tuple(members), tol)
    except ValueError:
        return verdict.invalid("matrices do not commute")
    js = joint_diagonalize(t, tol)
    cube = Cube(tuple(zip(js.lambda_min, js.lambda_max)))
    pool = {f.name: f for f in function_library(cube)}
    if args.function not in pool:
        return verdict.invalid(
            f"function {args.function!r} unavailable on the spectral cube; choices: {sorted(pool)}"
        )
    xi = load_vector(args.xi) if args.xi else np.eye(t.dim, dtype=complex)[0]
    if xi.shape[0] != t.dim:
        return verdict.invalid("xi dimension mismatch")
    return check_mond_pecaric(pool[args.function], t, xi, tol)


def _check_kyfan(args, tol) -> Verdict:
    return kyfan_check(load_hermitian(args.files[0]), parse_matrix_file(args.files[1]), tol)


_CHECKS = {
    "loewner": (_check_loewner, 2),
    "wmaj": (_check_wmaj, 2),
    "gmean": (_check_gmean, 2),
    "jensen": (_check_jensen, None),  # one or more tuple members
    "kyfan": (_check_kyfan, 2),
}


def _run_check(handler, args, tol) -> Verdict:
    """The handler's verdict; inputs that do not fit together or leave a domain are invalid."""
    try:
        return handler(args, tol)
    except (InputMismatchError, SpectrumDomainError) as exc:
        return verdict.invalid(str(exc))


def _print_verdict(name: str, v: Verdict) -> int:
    """Print the verdict's line; exit code 0 for a pass, 1 for a fail, 2 for invalid input."""
    if v.invalid:
        print(f"{name}: invalid input ({v.detail.get('reason', '')})")
        return 2
    print(v.detail.get("line") or f"{name}: {v.status} gap={v.gap:.6g}")
    return 0 if v.passed else 1


def cmd_check(args) -> int:
    handler, nfiles = _CHECKS[args.name]
    if len(args.files) != nfiles if nfiles else not args.files:
        need = f"exactly {nfiles} matrix files" if nfiles else "at least one matrix file"
        print(f"check {args.name} takes {need}", file=sys.stderr)
        return 2
    return _print_verdict(args.name, _run_check(handler, args, _tolerance(args.rtol)))


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
    """Run one command; every error exits 2 here, so only a failed check exits 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except (JacobiConvergenceError, JointDiagonalizationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
    except ConfigError as exc:  # the campaign config, --rtol, --sweep and the --dim/--arity ranges
        print(f"config error: {exc}", file=sys.stderr)
    except Exception:  # a fault in the program: its traceback, and still no verdict
        traceback.print_exc()
    return 2


if __name__ == "__main__":
    sys.exit(main())
