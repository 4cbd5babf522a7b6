"""Command-line interface: capacity queries, sweeps, threshold, verification.

Exit codes: 0 success, 1 verification failure, 2 argument error,
3 unconverged numeric search.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import checks
from .capacity import two_qubit_capacity
from .search import (
    MOEMethod,
    SearchConfig,
    crossing_mu,
    minimize_output_entropy,
    schmidt_coefficients,
)
from .symmetric import capacity_symmetric, threshold

#: Custom weights are renormalized only below this deviation from 1.
Q_RENORM_TOL = 1e-9

CSV_COLUMNS = ("family", "param", "mu", "s_min_bits", "capacity_bits", "regime", "method")


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a sweep: channel parameters and capacity."""

    family: str
    param: float | None
    mu: float
    s_min_bits: float
    capacity_bits: float
    regime: str
    method: str


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _fmt_param(param: float | None) -> str:
    return "nan" if param is None else _fmt(param)


def _fmt_amplitudes(state: np.ndarray) -> str:
    return ", ".join(f"{z.real:.9g}{z.imag:+.9g}j" for z in state)


@contextmanager
def _out_stream(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        handle = open(path, "w", encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.close()


def _parse_q(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        parser.error(f"--q expects 4 comma-separated weights, got {len(parts)}")
    try:
        q = [float(x) for x in parts]
    except ValueError:
        parser.error(f"--q weights must be numbers, got {text!r}")
    total = sum(q)
    if not abs(total - 1.0) <= Q_RENORM_TOL:
        parser.error(
            f"--q weights sum to {total!r}; deviations above {Q_RENORM_TOL:g} "
            "are rejected rather than silently renormalized"
        )
    return tuple(x / total for x in q)


#: --family choice -> (label, spec builder over (param, mu), default sweep-p upper bound).
_FAMILIES = {
    "symmetric": ("Symmetric", ch.preset_symmetric, 0.5),
    "depolarizing": ("Depolarizing", ch.preset_depolarizing, 1.0),
}


@contextmanager
def _usage_errors(parser):
    """Turn the library's rejection of an argument value into exit code 2."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_family(args, parser):
    """Return (family label, param, spec builder over (param, mu))."""
    if args.q is not None:
        if args.family not in (None, "custom"):
            parser.error("--q is only valid with --family custom")
        q = _parse_q(args.q, parser)
        return "Custom", None, lambda _, mu: ch.ChannelSpec(q, mu)
    if args.family in (None, "custom"):
        parser.error(
            "a channel is required: --family symmetric|depolarizing --param P, "
            "or --family custom --q q0,q1,q2,q3"
        )
    if args.param is None:
        parser.error(f"--param is required with --family {args.family}")
    family, build, _ = _FAMILIES[args.family]
    return family, args.param, build


def _require_mu(args, parser) -> float:
    if args.mu is None:
        parser.error("--mu is required")
    return args.mu


def _search_config(args, seed: int) -> SearchConfig:
    return SearchConfig(
        restarts=args.restarts,
        entropy_tolerance=args.tolerance,
        seed=seed,
    )


def _method_label(method: MOEMethod) -> str:
    return "Analytic" if method is MOEMethod.ANALYTIC_CLOSED_FORM else "Numeric"


def _capacity_key(args) -> str:
    return "capacity_bits_per_qubit" if args.per_qubit else "capacity_bits"


def _capacity_value(chi_bits: float, args) -> float:
    return chi_bits / 2.0 if args.per_qubit else chi_bits


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return value


def _write_json(payload, stream) -> None:
    stream.write(json.dumps(_finite_or_null(payload), indent=2, allow_nan=False))
    stream.write("\n")


def _emit_records(records, args, stream) -> None:
    if args.json:
        payload = []
        for rec in records:
            payload.append(
                {
                    "family": rec.family,
                    "param": rec.param,
                    "mu": rec.mu,
                    "s_min_bits": rec.s_min_bits,
                    _capacity_key(args): _capacity_value(rec.capacity_bits, args),
                    "regime": rec.regime,
                    "method": rec.method,
                }
            )
        _write_json(payload, stream)
        return
    header = list(CSV_COLUMNS)
    header[4] = _capacity_key(args)
    stream.write(",".join(header) + "\n")
    for rec in records:
        stream.write(
            ",".join(
                (
                    rec.family,
                    _fmt_param(rec.param),
                    _fmt(rec.mu),
                    _fmt(rec.s_min_bits),
                    _fmt(_capacity_value(rec.capacity_bits, args)),
                    rec.regime,
                    rec.method,
                )
            )
            + "\n"
        )


def _emit_report(pairs, args, stream) -> None:
    if args.json:
        _write_json(dict(pairs), stream)
        return
    for key, value in pairs:
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = _fmt(value)
        elif isinstance(value, list):
            text = ", ".join(_fmt(v) for v in value)
        else:
            text = str(value)
        stream.write(f"{key}: {text}\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _single_point(args, parser):
    """Family label, leading report pairs, channel and search config of one point."""
    family, param, build = _resolve_family(args, parser)
    mu = _require_mu(args, parser)
    with _usage_errors(parser):
        spec = build(param, mu)
        cfg = _search_config(args, args.seed)
    pairs = [("family", family)] + ([] if param is None else [("param", param)])
    return family, pairs + [("mu", spec.mu)], spec, cfg


def _report_point(pairs, state, converged: bool, args) -> int:
    """Write a single-point report; an unconverged one goes to stderr with exit 3."""
    if args.json:
        pairs.append(("state", [[z.real, z.imag] for z in state]))
    else:
        pairs.append(("state_amplitudes", _fmt_amplitudes(state)))
    if not converged:
        _emit_report(pairs, args, sys.stderr)
        return 3
    with _out_stream(args.out) as stream:
        _emit_report(pairs, args, stream)
    return 0


def _run_capacity(args, parser) -> int:
    family, pairs, spec, cfg = _single_point(args, parser)
    force_numeric = family == "Custom" or args.numeric
    result = two_qubit_capacity(spec, cfg, force_numeric=force_numeric)
    pairs += [
        ("s_min_bits", result.s_min_bits),
        (_capacity_key(args), _capacity_value(result.chi_bits, args)),
        ("regime", result.regime.value),
        ("method", _method_label(result.method)),
        ("converged", result.converged),
    ]
    return _report_point(pairs, result.state, result.converged, args)


def _run_sweep(args, parser, sweep_param: bool) -> int:
    if args.steps < 2:
        parser.error(f"--steps must be at least 2, got {args.steps}")
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")

    if sweep_param:
        if args.family not in _FAMILIES:
            parser.error("sweep-p requires --family symmetric or depolarizing")
        if args.param is not None or args.q is not None:
            parser.error(
                "sweep-p takes its weight range from --param-min/--param-max, not --param or --q"
            )
        family, build, upper = _FAMILIES[args.family]
        mu = _require_mu(args, parser)
        lo = args.param_min if args.param_min is not None else 0.0
        hi = args.param_max if args.param_max is not None else upper
    else:
        family, param, build = _resolve_family(args, parser)
        lo, hi = args.mu_min, args.mu_max
    if not lo <= hi:
        parser.error(f"the sweep range needs min <= max, got [{lo}, {hi}]")
    # An infinite bound makes NaN grid points, which the library rejects.
    with _usage_errors(parser), np.errstate(invalid="ignore"):
        jobs = []
        for index, v in enumerate(np.linspace(lo, hi, args.steps)):
            point_param, point_mu = (float(v), mu) if sweep_param else (param, float(v))
            cfg = _search_config(args, checks.point_seed(args.seed, index))
            jobs.append((point_param, build(point_param, point_mu), cfg))
    force_numeric = family == "Custom" or args.numeric

    records, converged = [], True
    for point_param, spec, cfg in jobs:
        result = two_qubit_capacity(spec, cfg, force_numeric=force_numeric)
        records.append(
            SweepRecord(
                family=family,
                param=point_param,
                mu=spec.mu,
                s_min_bits=result.s_min_bits,
                capacity_bits=result.chi_bits,
                regime=result.regime.value,
                method=_method_label(result.method),
            )
        )
        converged = converged and result.converged

    with _out_stream(args.out) as stream:
        _emit_records(records, args, stream)
    if not converged:
        print("warning: numeric search did not converge at every grid point", file=sys.stderr)
        return 3
    return 0


def _run_sweep_mu(args, parser) -> int:
    return _run_sweep(args, parser, sweep_param=False)


def _run_sweep_p(args, parser) -> int:
    return _run_sweep(args, parser, sweep_param=True)


def _capacity_slope(p: float, at_mu: float, step: float = 1e-5) -> float:
    lo, hi = at_mu - step / 2.0, at_mu + step / 2.0
    if lo < 0.0 or hi > 1.0:
        return math.nan
    return (capacity_symmetric(p, hi) - capacity_symmetric(p, lo)) / step


def _threshold_report(p: float, mu_t: float) -> list[tuple[str, object]]:
    """Report pairs: analytic and bisected threshold with one-sided slopes."""
    pairs = [("p", p), ("mu_t_analytic", mu_t)]
    if not 0.0 < mu_t < 1.0:
        return pairs + [
            ("mu_t_numeric", mu_t),
            ("left_slope", math.nan),
            ("right_slope", math.nan),
            ("note", "no interior threshold"),
        ]
    numeric = crossing_mu(lambda m: ch.preset_symmetric(p, m), tol=1e-6)
    pairs += [
        ("mu_t_numeric", numeric if numeric is not None else math.nan),
        ("left_slope", _capacity_slope(p, mu_t - 1e-4)),
        ("right_slope", _capacity_slope(p, mu_t + 1e-4)),
    ]
    if p < 0.25:
        note = f"signed expression 4p-1 = {4 * p - 1:.6g} is negative here; "
        pairs.append(("note", note + "the entropy comparison uses its magnitude"))
    return pairs


def _run_threshold(args, parser) -> int:
    with _usage_errors(parser):
        mu_t = threshold(args.p)
    with _out_stream(args.out) as stream:
        _emit_report(_threshold_report(args.p, mu_t), args, stream)
    return 0


def _run_moe(args, parser) -> int:
    _, pairs, spec, cfg = _single_point(args, parser)
    result = minimize_output_entropy(spec, cfg)
    pairs += [
        ("entropy_bits", result.entropy_bits),
        ("method", result.method.value),
        ("converged", result.converged),
        ("restarts_used", result.restarts_used),
        ("schmidt_coefficients", [float(c) for c in schmidt_coefficients(result.state)]),
    ]
    return _report_point(pairs, result.state, result.converged, args)


# ---------------------------------------------------------------------------
# verify


def _run_verify(args, parser) -> int:
    sizes = checks.DENSITIES[args.grid_density]
    with _usage_errors(parser):
        rng = np.random.default_rng(args.seed)
    passed = 0
    with _out_stream(args.out) as stream:
        stream.write(f"verify: grid-density={args.grid_density} seed={args.seed}\n")
        for name, check, tol in checks.CHECKS:
            residual = check(rng, sizes, args.seed)
            ok = residual <= tol
            passed += ok
            status = "PASS" if ok else "FAIL"
            stream.write(f"[{status}] {name}: residual={residual:.6e} (tol {tol:g})\n")
        stream.write(f"verify: {passed}/{len(checks.CHECKS)} checks passed\n")
    return 0 if passed == len(checks.CHECKS) else 1


# ---------------------------------------------------------------------------
# parser


def _add_channel_options(sp, with_mu=True):
    sp.add_argument(
        "--family",
        choices=["symmetric", "depolarizing", "custom"],
        help="channel family (symmetric/depolarizing need --param, custom needs --q)",
    )
    sp.add_argument("--param", type=float, help="family weight: p (symmetric) or x (depolarizing)")
    sp.add_argument("--q", help="custom weights q0,q1,q2,q3")
    if with_mu:
        sp.add_argument("--mu", type=float, help="memory factor in [0, 1]")


def _add_common_options(sp, threads=False):
    sp.add_argument("--seed", type=int, default=42, help="seed for every stochastic component")
    sp.add_argument("--out", help="output file (default standard output)")
    sp.add_argument("--json", action="store_true", help="emit JSON instead of text/CSV")
    sp.add_argument("--restarts", type=int, default=64, help="search restarts")
    sp.add_argument("--tolerance", type=float, default=1e-9, help="search entropy tolerance in bits")
    if threads:
        sp.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; grid points run in order in one thread",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paulimem",
        description="Two-qubit capacity of Pauli channels with correlated noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("capacity", help="capacity at a single channel point")
    _add_channel_options(sp)
    _add_common_options(sp)
    sp.add_argument("--per-qubit", action="store_true", help="report capacity per channel use")
    sp.add_argument("--numeric", action="store_true", help="force the global search path")
    sp.set_defaults(handler=_run_capacity)

    sp = sub.add_parser("sweep-mu", help="capacity over a memory grid")
    _add_channel_options(sp, with_mu=False)
    _add_common_options(sp, threads=True)
    sp.add_argument("--mu-min", type=float, default=0.0)
    sp.add_argument("--mu-max", type=float, default=1.0)
    sp.add_argument("--steps", type=int, default=101, help="grid points incl. endpoints")
    sp.add_argument("--per-qubit", action="store_true")
    sp.add_argument("--numeric", action="store_true")
    sp.set_defaults(handler=_run_sweep_mu)

    sp = sub.add_parser("sweep-p", help="capacity over a family-weight grid")
    _add_channel_options(sp)
    _add_common_options(sp, threads=True)
    sp.add_argument("--param-min", type=float)
    sp.add_argument("--param-max", type=float)
    sp.add_argument("--steps", type=int, default=51)
    sp.add_argument("--per-qubit", action="store_true")
    sp.add_argument("--numeric", action="store_true")
    sp.set_defaults(handler=_run_sweep_p)

    sp = sub.add_parser("threshold", help="memory threshold of the symmetric family")
    sp.add_argument("--p", type=float, required=True, help="symmetric weight in [0, 1/2]")
    sp.add_argument("--out")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(handler=_run_threshold)

    sp = sub.add_parser("moe", help="global minimal-output-entropy search")
    _add_channel_options(sp)
    _add_common_options(sp)
    sp.set_defaults(handler=_run_moe)

    sp = sub.add_parser("verify", help="cross-module invariant suite")
    sp.add_argument(
        "--grid-density",
        choices=sorted(checks.DENSITIES),
        default="default",
    )
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out")
    sp.set_defaults(handler=_run_verify)

    return parser


def _require_writable_out(path: str | None, parser) -> None:
    """Reject an ``--out`` path that cannot be written, before any computation."""
    if path is None or path == "-":
        return
    if not path:
        parser.error("--out must name a file or '-', got an empty path")
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        parser.error(f"--out {path!r} is a directory")
    if not os.path.isdir(folder):
        parser.error(f"--out {path!r}: directory {folder!r} does not exist")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        parser.error(f"--out {path!r} is not writable")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _require_writable_out(args.out, parser)
    return args.handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
