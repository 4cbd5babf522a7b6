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
from . import pauli
from .capacity import two_qubit_capacity
from .search import (
    MOEMethod,
    SearchConfig,
    crossing_mu,
    minimize_output_entropy,
    schmidt_coefficients,
)
from .spectral import hermitian_eigenvalues
from .symmetric import (
    AnsatzState,
    SymmetricParams,
    ansatz_state_vector,
    capacity_symmetric,
    optimal_input,
    output_eigenvalues,
    threshold,
)

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


@dataclass(frozen=True)
class ThresholdReport:
    """Analytic and bisected memory threshold with one-sided slopes."""

    p: float
    mu_t_analytic: float
    mu_t_numeric: float
    left_slope: float
    right_slope: float
    note: str


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


def _point_seed(base_seed: int, index: int) -> int:
    seq = np.random.SeedSequence((base_seed, index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


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
        stream.write(json.dumps(payload, indent=2))
        stream.write("\n")
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
        stream.write(json.dumps(dict(pairs), indent=2))
        stream.write("\n")
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
            cfg = _search_config(args, _point_seed(args.seed, index))
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


def _threshold_report(p: float, mu_t: float) -> ThresholdReport:
    interior = 0.0 < mu_t < 1.0
    if not interior:
        return ThresholdReport(
            p=p,
            mu_t_analytic=mu_t,
            mu_t_numeric=mu_t,
            left_slope=math.nan,
            right_slope=math.nan,
            note="no interior threshold",
        )
    numeric = crossing_mu(lambda m: ch.preset_symmetric(p, m), tol=1e-6)
    note = ""
    if p < 0.25:
        note = (
            f"signed expression 4p-1 = {4 * p - 1:.6g} is negative here; "
            "the entropy comparison uses its magnitude"
        )
    return ThresholdReport(
        p=p,
        mu_t_analytic=mu_t,
        mu_t_numeric=numeric if numeric is not None else math.nan,
        left_slope=_capacity_slope(p, mu_t - 1e-4),
        right_slope=_capacity_slope(p, mu_t + 1e-4),
        note=note,
    )


def _run_threshold(args, parser) -> int:
    with _usage_errors(parser):
        mu_t = threshold(args.p)
    report = _threshold_report(args.p, mu_t)
    pairs = [
        ("p", report.p),
        ("mu_t_analytic", report.mu_t_analytic),
        ("mu_t_numeric", report.mu_t_numeric),
        ("left_slope", report.left_slope),
        ("right_slope", report.right_slope),
    ]
    if report.note:
        pairs.append(("note", report.note))
    with _out_stream(args.out) as stream:
        _emit_report(pairs, args, stream)
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

_DENSITIES = {
    "low": {"eig_grid": (6, 6, 6, 4), "search_grid": (3, 3), "samples": 25},
    "default": {"eig_grid": (10, 10, 8, 6), "search_grid": (5, 5), "samples": 50},
    "high": {"eig_grid": (20, 20, 12, 8), "search_grid": (8, 8), "samples": 100},
}


def _random_spec(rng) -> ch.ChannelSpec:
    q = rng.dirichlet(np.ones(4))
    q = q / q.sum()
    return ch.ChannelSpec(tuple(q), float(rng.uniform()))


def _random_pure_state(rng) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def _run_verify(args, parser) -> int:
    sizes = _DENSITIES[args.grid_density]
    samples = sizes["samples"]
    with _usage_errors(parser):
        rng = np.random.default_rng(args.seed)
    results = []

    def record(stream, name, residual, tol):
        ok = residual <= tol
        results.append(ok)
        status = "PASS" if ok else "FAIL"
        stream.write(f"[{status}] {name}: residual={residual:.6e} (tol {tol:g})\n")

    with _out_stream(args.out) as stream:
        stream.write(
            f"verify: grid-density={args.grid_density} seed={args.seed}\n"
        )

        # Pauli algebra identities.
        eye2 = np.eye(2)
        residual = 0.0
        for i in range(4):
            si = pauli.pauli_matrix(i)
            residual = max(residual, np.abs(si @ si - eye2).max())
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    si, sj = pauli.pauli_matrix(i), pauli.pauli_matrix(j)
                    residual = max(residual, np.abs(si @ sj + sj @ si).max())
        residual = max(residual, np.abs(pauli.tensor(eye2, eye2) - np.eye(4)).max())
        record(stream, "pauli algebra identities", residual, 1e-12)

        # Kraus completeness.
        residual = 0.0
        for _ in range(samples):
            spec = _random_spec(rng)
            total = sum(k.conj().T @ k for k in ch.kraus_operators(spec))
            residual = max(residual, np.abs(total - np.eye(4)).max())
        record(stream, "kraus completeness", residual, 1e-12)

        # Covariance under all 16 Pauli rotations.
        residual = 0.0
        for _ in range(samples):
            spec = _random_spec(rng)
            v = _random_pure_state(rng)
            rho = np.outer(v, v.conj())
            for i in range(4):
                for j in range(4):
                    residual = max(residual, ch.covariance_residual(spec, rho, i, j))
        record(stream, "pauli-rotation covariance", residual, 1e-10)

        # Rotation-averaged output is maximally mixed.
        residual = 0.0
        eye4 = np.eye(4) / 4.0
        for _ in range(samples):
            spec = _random_spec(rng)
            v = _random_pure_state(rng)
            avg = ch.ensemble_average_output(spec, np.outer(v, v.conj()))
            residual = max(residual, np.abs(avg - eye4).max())
        record(stream, "averaged output maximally mixed", residual, 1e-12)

        # Closed-form spectrum vs dense diagonalization.
        n_p, n_mu, n_theta, n_phi = sizes["eig_grid"]
        residual = 0.0
        for p in np.linspace(0.0, 0.5, n_p):
            for mu in np.linspace(0.0, 1.0, n_mu):
                params = SymmetricParams(p, mu)
                spec = ch.preset_symmetric(p, mu)
                for theta in np.linspace(0.0, math.pi / 2, n_theta):
                    for phi in np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False):
                        state = AnsatzState(theta, phi)
                        v = ansatz_state_vector(state)
                        dense = hermitian_eigenvalues(
                            ch.apply(spec, np.outer(v, v.conj()))
                        )
                        formula = output_eigenvalues(params, state)
                        residual = max(residual, np.abs(dense - formula).max())
        record(stream, "closed-form spectrum vs dense diagonalization", residual, 1e-9)

        # Closed-form minimum vs global search.
        n_p, n_mu = sizes["search_grid"]
        residual = 0.0
        for i, p in enumerate(np.linspace(0.0, 0.5, n_p)):
            for j, mu in enumerate(np.linspace(0.0, 1.0, n_mu)):
                analytic = optimal_input(SymmetricParams(p, mu)).s_min_bits
                cfg = SearchConfig(
                    restarts=6,
                    max_iterations=150,
                    seed=_point_seed(args.seed, 10_000 + i * n_mu + j),
                )
                found = minimize_output_entropy(
                    ch.preset_symmetric(p, mu), cfg
                ).entropy_bits
                residual = max(residual, abs(found - analytic))
        record(stream, "closed-form minimum vs global search", residual, 1e-6)

        # Saturation of the covariant-ensemble bound.  The gap identity
        # holds for the ensemble of whatever state the search returns, so
        # a small search budget suffices.
        residual = 0.0
        for k in range(samples):
            spec = _random_spec(rng)
            cfg = SearchConfig(
                restarts=6, max_iterations=150, seed=_point_seed(args.seed, 20_000 + k)
            )
            residual = max(residual, two_qubit_capacity(spec, cfg).saturation_gap)
        record(stream, "covariant-ensemble saturation gap", residual, 1e-8)

        # Perfect memory transmits two bits.
        residual = 0.0
        for k in range(samples):
            q = rng.dirichlet(np.ones(4))
            spec = ch.ChannelSpec(tuple(q / q.sum()), 1.0)
            cfg = SearchConfig(
                restarts=6, max_iterations=150, seed=_point_seed(args.seed, 30_000 + k)
            )
            residual = max(residual, abs(two_qubit_capacity(spec, cfg).chi_bits - 2.0))
        record(stream, "perfect memory transmits 2 bits", residual, 1e-9)

        passed = sum(results)
        stream.write(f"verify: {passed}/{len(results)} checks passed\n")
    return 0 if passed == len(results) else 1


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
        choices=sorted(_DENSITIES),
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
