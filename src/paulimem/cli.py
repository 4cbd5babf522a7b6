"""Command-line interface: capacity queries, sweeps, threshold, verification.

Exit codes: 0 success, 1 verification failure, 2 argument error or
output that cannot be written, 3 unconverged numeric search.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import channel as ch
from . import checks
from .capacity import _BLOCK, _closed_form_rows, crossing_mu, two_qubit_capacity
from .search import SearchConfig, minimize_output_entropy, schmidt_coefficients
from .spectral import require_depolarizing_weight, require_memory_factor, require_symmetric_weight
from .symmetric import capacity_symmetric, threshold

#: Custom weights are renormalized only below this deviation from 1.
Q_RENORM_TOL = 1e-9

#: Most grid points one sweep takes: a closed-form sweep streams its rows in
#: bounded memory, so the cap bounds its time: about 12 s on a 2-core host.
MAX_STEPS = 1_000_000


def _parse_q(text: str, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 4:
        parser.error(f"--q expects 4 comma-separated weights, got {len(parts)}")
    try:
        q = [float(x) for x in parts]
    except ValueError:
        parser.error(f"--q weights must be numbers, got {text!r}")
    total = sum(q)
    if not math.isfinite(total):
        return tuple(q)  # ChannelSpec names the non-finite weight
    if not abs(total - 1.0) <= Q_RENORM_TOL:
        parser.error(
            f"--q weights sum to {total!r}; deviations above {Q_RENORM_TOL:g} "
            "are rejected rather than silently renormalized"
        )
    return tuple(x / total for x in q)


#: --family choice -> (label, spec builder, weights of param(s), param rule, sweep-p default max).
_FAMILIES = {
    "symmetric": ("Symmetric", ch.preset_symmetric, ch._symmetric_q, require_symmetric_weight, 0.5),
    "depolarizing": (
        "Depolarizing", ch.preset_depolarizing, ch._depolarizing_q, require_depolarizing_weight, 1.0
    ),
}


@contextmanager
def _usage_errors(parser):
    """Turn the library's rejection of an argument value into exit code 2."""
    try:
        yield
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_family(args, parser):
    """Return (family label, param, spec builder over (param, mu), q); param is nan for --q."""
    if args.q is not None:
        if args.family not in (None, "custom"):
            parser.error("--q is only valid with --family custom")
        if args.param is not None:
            parser.error("--param is not valid with --q")
        q = _parse_q(args.q, parser)
        return "Custom", math.nan, lambda _, mu: ch.ChannelSpec(q, mu), q
    if args.family in (None, "custom"):
        parser.error(
            "a channel is required: --family symmetric|depolarizing --param P, "
            "or --family custom --q q0,q1,q2,q3"
        )
    if args.param is None:
        parser.error(f"--param is required with --family {args.family}")
    family, build, weights, *_ = _FAMILIES[args.family]
    return family, args.param, build, weights(args.param)


def _search_config(args, seed: int) -> SearchConfig:
    return SearchConfig(
        restarts=args.restarts,
        entropy_tolerance=args.tolerance,
        seed=seed,
    )


def _capacity_columns(args) -> tuple[tuple[str, ...], float, str]:
    """The keys of a capacity answer's s_min, capacity, regime and method, the
    divisor of chi in its capacity (chi / 1.0 is chi, bit for bit) and its method."""
    capacity = "capacity_bits_per_qubit" if args.per_qubit else "capacity_bits"
    keys = ("s_min_bits", capacity, "regime", "method")
    return keys, 2.0 if args.per_qubit else 1.0, "Numeric" if args.numeric else "Analytic"


def _finite_or_null(value):
    """``value`` with every non-finite float in it replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return value


def _json(payload) -> str:
    return json.dumps(_finite_or_null(payload), indent=2, allow_nan=False) + "\n"


def _text(value) -> str:
    """One value as report text; a float as each ``%.9g`` field of ``_ROW``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, list):
        return ", ".join(f"{v:.9g}" for v in value)
    return str(value)


def _format_report(pairs, args) -> str:
    """One record as ``key: value`` lines, or as a JSON object."""
    if args.json:
        return _json(dict(pairs))
    return "".join(f"{key}: {_text(value)}\n" for key, value in pairs)


#: One sweep row as CSV: family, param, mu, s_min, capacity, regime, method.
_ROW = "%s,%.9g,%.9g,%.9g,%.9g,%s,%s\n"


def _format_table(keys, rows, args):
    """``rows``, value tuples under ``keys``, as the text chunks of one table,
    _BLOCK rows a chunk: CSV under a header of ``keys``, each row through _ROW,
    or a JSON array.  The chunks join to the text of all rows formatted at once."""
    blocks = iter(lambda: list(itertools.islice(rows, _BLOCK)), [])
    for k, block in enumerate(blocks):
        if args.json:
            # A block's array, brackets cut, holds its rows as the whole array does.
            yield ("," if k else "[") + _json([dict(zip(keys, row)) for row in block])[1:-3]
        else:
            yield ("" if k else ",".join(keys) + "\n") + "".join([_ROW % row for row in block])
    if args.json:
        yield "\n]\n"


def _write(chunks, args, parser) -> None:
    """Write text ``chunks`` in turn to ``--out`` or standard output; a failed write exits 2."""
    to_file = args.out not in (None, "-")
    try:
        if to_file:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
        elif sys.stdout is None:  # descriptor 1 was closed at start
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not to_file and sys.stdout is not None:
            # Closing drops the unwritten text, which the exit-time flush would retry.
            with suppress(OSError):
                sys.stdout.close()
        where = args.out if to_file else "standard output"
        parser.error(f"cannot write {where}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _single_point(args, parser):
    """Leading report pairs, channel and search config of one point."""
    family, param, build, _ = _resolve_family(args, parser)
    with _usage_errors(parser):
        spec = build(param, args.mu)
        cfg = _search_config(args, args.seed)
    pairs = [("family", family)] + ([] if math.isnan(param) else [("param", param)])
    return pairs + [("mu", spec.mu)], spec, cfg


def _report_point(pairs, state, converged: bool, args, parser) -> int:
    """Write a single-point report; an unconverged one goes to stderr with exit 3."""
    if args.json:
        pairs.append(("state", [[z.real, z.imag] for z in state]))
    else:
        amplitudes = ", ".join(f"{z.real:.9g}{z.imag:+.9g}j" for z in state)
        pairs.append(("state_amplitudes", amplitudes))
    text = _format_report(pairs, args)
    if not converged:
        sys.stderr.write(text)
        return 3
    _write((text,), args, parser)
    return 0


def _run_capacity(args, parser) -> int:
    pairs, spec, cfg = _single_point(args, parser)
    result = two_qubit_capacity(spec, cfg, force_numeric=args.numeric)
    keys, scale, method = _capacity_columns(args)
    pairs += zip(keys, (result.s_min_bits, result.chi_bits / scale, result.regime.value, method))
    pairs.append(("converged", result.converged))
    return _report_point(pairs, result.state, result.converged, args, parser)


def _grid(option: str, lo: float, hi: float, steps: int, parser) -> np.ndarray:
    """The ``steps`` points of the sweep range [lo, hi] of ``option``-min/max, checked first."""
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            parser.error(f"{option}-{end} must be finite, got {value}")
    if not lo <= hi:
        parser.error(f"the sweep range needs min <= max, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def _run_sweep(args, parser) -> int:
    if not 2 <= args.steps <= MAX_STEPS:
        parser.error(f"--steps must lie in [2, {MAX_STEPS}], got {args.steps}")
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")

    if args.command == "sweep-p":
        family, build, weights, rule, upper = _FAMILIES[args.family]
        lo = args.param_min if args.param_min is not None else 0.0
        hi = args.param_max if args.param_max is not None else upper
        axis = params = _grid("--param", lo, hi, args.steps, parser)
        mus, q = np.broadcast_to(args.mu, params.shape), np.stack(weights(params), -1)
    else:
        family, param, build, q = _resolve_family(args, parser)
        axis = mus = _grid("--mu", args.mu_min, args.mu_max, args.steps, parser)
        params, q = np.broadcast_to(param, mus.shape), np.array([q])
        rule = require_memory_factor
    with _usage_errors(parser):
        _search_config(args, args.seed)  # the base seed, before --numeric points derive theirs
        # The first point's builder checks every constant input, in its own order;
        # the rule of the one varying axis then checks each of its values.
        build(float(params[0]), float(mus[0]))
        for start in range(0, args.steps, _BLOCK):  # memory flat in --steps
            for value in axis[start : start + _BLOCK].tolist():
                rule(value)
    converged = True

    def search(k):
        nonlocal converged
        cfg = _search_config(args, checks.point_seed(args.seed, k))
        spec = build(float(params[k]), float(mus[k]))
        result = two_qubit_capacity(spec, cfg, force_numeric=True)
        converged = converged and result.converged
        return result.chi_bits, result.s_min_bits, None, result.regime  # as _closed_form_rows

    if args.numeric:
        answers = map(search, range(args.steps))
    else:
        answers = _closed_form_rows(np.broadcast_to(q, (args.steps, 4)), mus)
    keys, scale, method = _capacity_columns(args)
    points = zip(map(float, params.flat), map(float, mus.flat), answers)
    rows = (
        (family, p, mu, s_min, chi / scale, regime.value, method)
        for p, mu, (chi, s_min, _, regime) in points
    )
    _write(_format_table(("family", "param", "mu", *keys), rows, args), args, parser)
    if not converged:
        print("warning: numeric search did not converge at every grid point", file=sys.stderr)
        return 3
    return 0


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
    _write((_format_report(_threshold_report(args.p, mu_t), args),), args, parser)
    return 0


def _run_moe(args, parser) -> int:
    pairs, spec, cfg = _single_point(args, parser)
    result = minimize_output_entropy(spec, cfg)
    pairs += [
        ("entropy_bits", result.entropy_bits),
        ("method", result.method.value),
        ("converged", result.converged),
        ("restarts_used", result.restarts_used),
        ("schmidt_coefficients", [float(c) for c in schmidt_coefficients(result.state)]),
    ]
    return _report_point(pairs, result.state, result.converged, args, parser)


# ---------------------------------------------------------------------------
# verify


def _run_verify(args, parser) -> int:
    sizes = checks.DENSITIES[args.grid_density]
    with _usage_errors(parser):
        rng = np.random.default_rng(SearchConfig(seed=args.seed).seed)
    lines = [f"verify: grid-density={args.grid_density} seed={args.seed}"]
    passed = 0
    for name, check, tol in checks.CHECKS:
        residual = check(rng, sizes, args.seed)
        ok = residual <= tol
        passed += ok
        status = "PASS" if ok else "FAIL"
        lines.append(f"[{status}] {name}: residual={residual:.6e} (tol {tol:g})")
    lines.append(f"verify: {passed}/{len(checks.CHECKS)} checks passed")
    _write((f"{line}\n" for line in lines), args, parser)
    return 0 if passed == len(checks.CHECKS) else 1


# ---------------------------------------------------------------------------
# parser


#: Each option's argparse settings, declared once for every command that takes it.
_OPTIONS = {
    "--family": dict(
        choices=["symmetric", "depolarizing", "custom"],
        help="channel family (symmetric/depolarizing need --param, custom needs --q)",
    ),
    "--param": dict(type=float, help="family weight: p (symmetric) or x (depolarizing)"),
    "--q": dict(help="custom weights q0,q1,q2,q3"),
    "--mu": dict(type=float, required=True, help="memory factor in [0, 1]"),
    "--p": dict(type=float, required=True, help="symmetric weight in [0, 1/2]"),
    "--seed": dict(type=int, default=42, help="seed for every stochastic component"),
    "--out": dict(help="output file (default standard output)"),
    "--json": dict(action="store_true", help="emit JSON instead of text/CSV"),
    "--restarts": dict(type=int, default=64, help="search restarts"),
    "--tolerance": dict(type=float, default=1e-9, help="search entropy tolerance in bits"),
    "--threads": dict(
        type=int,
        default=1,
        help="accepted for compatibility; grid points run in order in one thread",
    ),
    "--per-qubit": dict(action="store_true", help="report capacity per channel use"),
    "--numeric": dict(action="store_true", help="run the search, not the closed form"),
    "--mu-min": dict(type=float, default=0.0, help="least memory factor (default 0)"),
    "--mu-max": dict(type=float, default=1.0, help="largest memory factor (default 1)"),
    "--param-min": dict(type=float, help="least family weight (default 0)"),
    "--param-max": dict(type=float, help="largest family weight (default 1/2 or 1, by family)"),
    "--steps": dict(type=int, default=101, help="grid points incl. endpoints (default %(default)s)"),
    "--grid-density": dict(
        choices=sorted(checks.DENSITIES), default="default", help="sample sizes of the checks"
    ),
}
_CHANNEL = ("--family", "--param", "--q")
_SEARCH = ("--seed", "--out", "--json", "--restarts", "--tolerance")
_SWEEP = ("--threads", "--per-qubit", "--numeric")

#: Each command's help, handler and options, in usage order.
_COMMANDS = {
    "capacity": ("capacity at a single channel point", _run_capacity,
                 (*_CHANNEL, "--mu", *_SEARCH, "--per-qubit", "--numeric")),
    "sweep-mu": ("capacity over a memory grid", _run_sweep,
                 (*_CHANNEL, *_SEARCH, *_SWEEP, "--mu-min", "--mu-max", "--steps")),
    "sweep-p": ("capacity over a family-weight grid", _run_sweep,
                ("--family", "--mu", *_SEARCH, *_SWEEP, "--param-min", "--param-max", "--steps")),
    "threshold": ("memory threshold of the symmetric family", _run_threshold,
                  ("--p", "--out", "--json")),
    "moe": ("global minimal-output-entropy search", _run_moe, (*_CHANNEL, "--mu", *_SEARCH)),
    "verify": ("cross-module invariant suite", _run_verify, ("--grid-density", "--seed", "--out")),
}
#: The settings by which a command's option differs from the option's row.
_OVERRIDES = {
    ("sweep-p", "--family"): dict(choices=list(_FAMILIES), required=True, help="channel family"),
    ("sweep-p", "--steps"): dict(default=51),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: it reads ``--mu -1e-3`` or ``--q -inf,...``, which
    argparse takes for a missing value, as ``--mu=-1e-3`` or ``--q=-inf,...``,
    and reports the arguments left after it."""

    def parse_known_args(self, args=None, namespace=None):
        args, actions = list(args), self._option_string_actions
        for k in reversed(range(len(args) - 1)):
            arg, value = args[k], args[k + 1].split(",")[0]
            prefix = self.allow_abbrev and arg[:2] == "--" != arg  # argparse's abbreviations
            names = [arg] if arg in actions else [n for n in actions if prefix and n.startswith(arg)]
            if len(names) == 1 and actions[names[0]].nargs is None and value.startswith("-"):
                with suppress(ValueError):  # joined only where float() reads the first item
                    float(value)
                    args[k : k + 2] = [f"{args[k]}={args[k + 1]}"]
        namespace, unknown = super().parse_known_args(args, namespace)
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        return namespace, unknown


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="paulimem",
        description="Two-qubit capacity of Pauli channels with correlated noise",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (text, handler, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for option in options:
            sp.add_argument(option, **{**_OPTIONS[option], **_OVERRIDES.get((command, option), {})})
        sp.set_defaults(handler=handler, parser=sp)
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
    args = _build_parser().parse_args(argv)
    _require_writable_out(args.out, args.parser)
    return args.handler(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
