"""Command-line surface: formats, determinism, exit codes."""

import ast
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimem import checks, cli
from paulimem.capacity import _BLOCK, two_qubit_capacity
from paulimem.channel import ChannelSpec, preset_depolarizing, preset_symmetric
from paulimem.cli import main


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse errors
        return exc.code


def run_captured(args):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(args)
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(args):
    """Exit 2, empty stdout and exactly one ``paulimem ...: error:`` line, which is returned."""
    code, out, err = run_captured(args)
    assert code == 2, (args, code, err)
    assert out == ""
    errors = [line for line in err.splitlines() if ": error: " in line]
    assert len(errors) == 1 and errors[0].startswith("paulimem"), (args, err)
    return errors[0]


# Full stdout of the closed-form commands; these bytes must not change.
GOLDEN_STDOUT = {
    "capacity --family symmetric --param 0.3 --mu 0.5": """\
family: Symmetric
param: 0.3
mu: 0.5
s_min_bits: 1.53672167
capacity_bits: 0.463278326
regime: Entangled
method: Analytic
converged: true
state_amplitudes: 0.707106781+0j, 0+0j, 0+0j, 0.707106781+0j
""",
    "capacity --family symmetric --param 0.45 --mu 0.2 --json --per-qubit": """\
{
  "family": "Symmetric",
  "param": 0.45,
  "mu": 0.2,
  "s_min_bits": 0.9165019458273397,
  "capacity_bits_per_qubit": 0.5417490270863299,
  "regime": "Product",
  "method": "Analytic",
  "converged": true,
  "state": [
    [
      1.0,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.0,
      0.0
    ]
  ]
}
""",
    # The four-candidate closed form, at full precision.
    "capacity --q 0.4,0.3,0.2,0.1 --mu 0.6 --json": """\
{
  "family": "Custom",
  "mu": 0.6,
  "s_min_bits": 1.2950420740031987,
  "capacity_bits": 0.7049579259968013,
  "regime": "Entangled",
  "method": "Analytic",
  "converged": true,
  "state": [
    [
      0.7071067811865475,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.7071067811865475,
      0.0
    ]
  ]
}
""",
    # Exact zero weights and mu = 1: the closed form's signed zeros, at full precision.
    "capacity --q 1,0,0,0 --mu 1 --json": """\
{
  "family": "Custom",
  "mu": 1.0,
  "s_min_bits": 0.0,
  "capacity_bits": 1.9999999999999996,
  "regime": "Boundary",
  "method": "Analytic",
  "converged": true,
  "state": [
    [
      0.7071067811865475,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.0,
      0.0
    ],
    [
      0.7071067811865475,
      0.0
    ]
  ]
}
""",
    "sweep-mu --family symmetric --param 0.35 --steps 21": """\
family,param,mu,s_min_bits,capacity_bits,regime,method
Symmetric,0.35,0,1.7625818,0.237418202,Product,Analytic
Symmetric,0.35,0.05,1.76079912,0.239200882,Product,Analytic
Symmetric,0.35,0.1,1.75551777,0.244482228,Product,Analytic
Symmetric,0.35,0.15,1.74680604,0.253193964,Product,Analytic
Symmetric,0.35,0.2,1.73469535,0.265304649,Product,Analytic
Symmetric,0.35,0.25,1.71918464,0.280815357,Product,Analytic
Symmetric,0.35,0.3,1.70024225,0.29975775,Product,Analytic
Symmetric,0.35,0.35,1.67780592,0.32219408,Product,Analytic
Symmetric,0.35,0.4,1.651781,0.348219,Boundary,Analytic
Symmetric,0.35,0.45,1.57712441,0.422875585,Entangled,Analytic
Symmetric,0.35,0.5,1.49482071,0.505179293,Entangled,Analytic
Symmetric,0.35,0.55,1.40456659,0.595433411,Entangled,Analytic
Symmetric,0.35,0.6,1.30593707,0.694062934,Entangled,Analytic
Symmetric,0.35,0.65,1.19834844,0.80165156,Entangled,Analytic
Symmetric,0.35,0.7,1.08099793,0.919002073,Entangled,Analytic
Symmetric,0.35,0.75,0.952760484,1.04723952,Entangled,Analytic
Symmetric,0.35,0.8,0.811999291,1.18800071,Entangled,Analytic
Symmetric,0.35,0.85,0.656177686,1.34382231,Entangled,Analytic
Symmetric,0.35,0.9,0.480917687,1.51908231,Entangled,Analytic
Symmetric,0.35,0.95,0.276901595,1.7230984,Entangled,Analytic
Symmetric,0.35,1,0,2,Entangled,Analytic
""",
    "sweep-p --family symmetric --mu 0.5 --steps 6 --json": """\
[
  {
    "family": "Symmetric",
    "param": 0.0,
    "mu": 0.5,
    "s_min_bits": 0.0,
    "capacity_bits": 2.0,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.1,
    "mu": 0.5,
    "s_min_bits": 1.291314688649721,
    "capacity_bits": 0.7086853113502793,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.2,
    "mu": 0.5,
    "s_min_bits": 1.5367216744383576,
    "capacity_bits": 0.46327832556164195,
    "regime": "Entangled",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.30000000000000004,
    "mu": 0.5,
    "s_min_bits": 1.536721674438358,
    "capacity_bits": 0.46327832556164217,
    "regime": "Entangled",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.4,
    "mu": 0.5,
    "s_min_bits": 1.2913146886497209,
    "capacity_bits": 0.7086853113502793,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.5,
    "mu": 0.5,
    "s_min_bits": 0.0,
    "capacity_bits": 2.0,
    "regime": "Product",
    "method": "Analytic"
  }
]
""",
    # Zero weights at both ends of the family, at full precision.
    "sweep-p --family symmetric --mu 0.3 --steps 11 --json": """\
[
  {
    "family": "Symmetric",
    "param": 0.0,
    "mu": 0.3,
    "s_min_bits": 1.6017132519074586e-16,
    "capacity_bits": 1.9999999999999998,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.05,
    "mu": 0.3,
    "s_min_bits": 0.8933940886681888,
    "capacity_bits": 1.1066059113318112,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.1,
    "mu": 0.3,
    "s_min_bits": 1.387236648446058,
    "capacity_bits": 0.6127633515539412,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.15000000000000002,
    "mu": 0.3,
    "s_min_bits": 1.700242249708427,
    "capacity_bits": 0.2997577502915725,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.2,
    "mu": 0.3,
    "s_min_bits": 1.8195343460294193,
    "capacity_bits": 0.18046565397058134,
    "regime": "Entangled",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.25,
    "mu": 0.3,
    "s_min_bits": 1.830301191921417,
    "capacity_bits": 0.16969880807858195,
    "regime": "Entangled",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.30000000000000004,
    "mu": 0.3,
    "s_min_bits": 1.8195343460294193,
    "capacity_bits": 0.18046565397058156,
    "regime": "Entangled",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.35000000000000003,
    "mu": 0.3,
    "s_min_bits": 1.700242249708427,
    "capacity_bits": 0.2997577502915727,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.4,
    "mu": 0.3,
    "s_min_bits": 1.3872366484460579,
    "capacity_bits": 0.6127633515539419,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.45,
    "mu": 0.3,
    "s_min_bits": 0.8933940886681886,
    "capacity_bits": 1.1066059113318114,
    "regime": "Product",
    "method": "Analytic"
  },
  {
    "family": "Symmetric",
    "param": 0.5,
    "mu": 0.3,
    "s_min_bits": 1.6017132519074586e-16,
    "capacity_bits": 1.9999999999999998,
    "regime": "Product",
    "method": "Analytic"
  }
]
""",
    "threshold --p 0.15 --json": """\
{
  "p": 0.15,
  "mu_t_analytic": 0.4,
  "mu_t_numeric": 0.40000009536743164,
  "left_slope": 0.5570423892375942,
  "right_slope": 1.4184701623953797,
  "note": "signed expression 4p-1 = -0.4 is negative here; the entropy comparison uses its magnitude"
}
""",
    "threshold --p 0.25 --json": """\
{
  "p": 0.25,
  "mu_t_analytic": 0.0,
  "mu_t_numeric": 0.0,
  "left_slope": null,
  "right_slope": null,
  "note": "no interior threshold"
}
""",
}


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_closed_form_stdout_is_pinned(command):
    assert run_captured(command.split()) == (0, GOLDEN_STDOUT[command], "")
    if "--json" in command:
        json.loads(GOLDEN_STDOUT[command], parse_constant=_reject_constant)


# SHA-256 of the CSV of sweeps that span several blocks, a custom channel with
# exact-zero weights, a sweep-p and a numeric sweep; these bytes must not change.
CSV_SHA256 = {
    "sweep-mu --q 0.5,0.05,0.4,0.05 --steps 137 --per-qubit":
        "c47d55591c809a286598915957b55853caf8032949bf05d6e573aacf48fa9fa2",
    "sweep-mu --q 1,0,0,0 --steps 131":
        "d4be8fa5b0b2960fb59736517ba8a5493f44ca733236635f236973e0e5f350bb",
    "sweep-p --family depolarizing --mu 0.5 --steps 200":
        "5101f1b85c8365700e743a37f47f088d605a847fc15e2daa76b4ce18cb1c79f8",
    "sweep-mu --q 0.4,0.3,0.2,0.1 --steps 3 --numeric --restarts 4":
        "fc314c639365d4ba30e5ecf699b438d1423d2857c8e83121595ca1be06d98947",
}


@pytest.mark.parametrize("command", sorted(CSV_SHA256))
def test_csv_sweep_bytes_are_pinned(command):
    code, out, err = run_captured(command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CSV_SHA256[command]


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16, 0.30000000000000004,
     1.9999999999999996],
)
def test_the_row_template_writes_a_float_as_a_report_does(value):
    # Each float field of a sweep row has the bytes of the same value in a point report.
    row = cli._ROW % ("Custom", value, value, value, value, "Product", "Analytic")
    assert row == ",".join(["Custom", *[cli._text(value)] * 4, "Product", "Analytic"]) + "\n"


def test_one_table_declares_every_option_of_every_command():
    # Each option is declared once, in _OPTIONS, and one loop adds it to each command.
    source = Path(cli.__file__).read_text()
    calls = [node.func for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    names = [getattr(func, "attr", getattr(func, "id", None)) for func in calls]
    assert (names.count("add_argument"), names.count("set_defaults")) == (1, 1)
    assert "sweep_param" not in source
    assert {option for _, _, options in cli._COMMANDS.values() for option in options} == set(
        cli._OPTIONS
    )


def test_one_parser_serves_every_call_in_a_process():
    assert cli._build_parser() is cli._build_parser()
    sweep = "sweep-mu --family symmetric --param 0.35 --steps 21"
    first = run_captured(sweep.split())
    assert first == (0, GOLDEN_STDOUT[sweep], "")
    assert_usage_error(sweep.replace("--steps 21", "--steps 1").split())
    report = "capacity --q 0.4,0.3,0.2,0.1 --mu 0.6 --json"
    assert run_captured(report.split()) == (0, GOLDEN_STDOUT[report], "")
    code, out, _ = run_captured(["--help"])
    assert code == 0 and out.startswith("usage: paulimem")
    # Neither the failure nor the other commands left state in the parser.
    assert run_captured(sweep.split()) == first


# The numbers the closed form and the default search (--numeric) both
# report for two custom channels.  The searched state may move within the
# optimal set, so its amplitudes are not pinned.
SEARCH_LINES = {
    "capacity --q 0.4,0.3,0.2,0.1 --mu 0.6": (
        "s_min_bits: 1.29504207", "capacity_bits: 0.704957926",
        "regime: Entangled", "converged: true",
    ),
    "capacity --q 0.1,0.2,0.3,0.4 --mu 0.2": (
        "s_min_bits: 1.73469535", "capacity_bits: 0.265304649",
        "regime: Product", "converged: true",
    ),
}


@pytest.mark.parametrize("command", sorted(SEARCH_LINES))
def test_search_report_is_pinned(command):
    for extra, method in (([], "Analytic"), (["--numeric"], "Numeric")):
        code, out, err = run_captured(command.split() + extra)
        assert (code, err) == (0, "")
        keys = ("s_min_bits", "capacity_bits", "regime", "converged")
        lines = tuple(line for line in out.splitlines() if line.split(":")[0] in keys)
        assert lines == SEARCH_LINES[command]
        assert f"method: {method}" in out.splitlines()


def test_capacity_symmetric_analytic(tmp_path, capsys):
    out = tmp_path / "cap.txt"
    args = ["capacity", "--family", "symmetric", "--param", "0.3", "--mu", "0.5"]
    code = run_cli(args + ["--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "capacity_bits: 0.463278326" in text
    assert "s_min_bits: 1.53672167" in text
    assert "regime: Entangled" in text
    assert "method: Analytic" in text
    # default output stream is stdout
    capsys.readouterr()
    assert run_cli(args) == 0
    assert capsys.readouterr().out == text


def test_capacity_product_regime(tmp_path):
    out = tmp_path / "cap.txt"
    code = run_cli(
        ["capacity", "--family", "symmetric", "--param", "0.45", "--mu", "0.2",
         "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "capacity_bits: 1.08349805" in text
    assert "regime: Product" in text


def test_capacity_perfect_memory(tmp_path):
    out = tmp_path / "cap.txt"
    code = run_cli(
        ["capacity", "--family", "symmetric", "--param", "0.25", "--mu", "1",
         "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert "capacity_bits: 2" in text
    assert "regime: Entangled" in text


def test_capacity_json_per_qubit(tmp_path):
    out = tmp_path / "cap.json"
    code = run_cli(
        ["capacity", "--family", "symmetric", "--param", "0.25", "--mu", "1",
         "--per-qubit", "--json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["capacity_bits_per_qubit"] - 1.0) < 1e-9
    assert payload["regime"] == "Entangled"
    assert "state" in payload


def test_capacity_custom_channel_forced_numeric(tmp_path):
    out = tmp_path / "cap.txt"
    args = ["capacity", "--family", "custom", "--q", "1,0,0,0", "--mu", "0.4", "--restarts", "6"]
    code = run_cli(args + ["--numeric", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "family: Custom" in text
    assert "method: Numeric" in text
    assert "capacity_bits: 2" in text
    # Without --numeric the four-candidate closed form answers.
    code, text, _ = run_captured(args)
    assert code == 0
    assert "method: Analytic" in text
    assert "capacity_bits: 2" in text


def test_custom_q_renormalized_below_tolerance(tmp_path):
    out = tmp_path / "cap.txt"
    code = run_cli(
        ["capacity", "--q", "0.2500000000001,0.25,0.25,0.25", "--mu", "0",
         "--restarts", "6", "--out", str(out)]
    )
    assert code == 0


def test_custom_q_rejected_above_tolerance():
    code = run_cli(["capacity", "--q", "0.3,0.25,0.25,0.25", "--mu", "0"])
    assert code == 2


def _unreachable(*args, **kwargs):
    raise AssertionError("a rejected argument reached a computation")


#: The CLI's computations, to be patched to fail if a rejected argv reaches one.
COMPUTATIONS = dict.fromkeys(
    ("two_qubit_capacity", "_closed_form_rows", "minimize_output_entropy", "crossing_mu"),
    _unreachable,
)
UNREACHABLE_CHECKS = tuple((name, _unreachable, tol) for name, _, tol in checks.CHECKS)


def test_argument_errors_exit_2(tmp_path):
    point = ["--family", "symmetric", "--param", "0.3", "--mu", "0.5"]
    missing = str(tmp_path / "missing" / "out.txt")
    errors = {}
    for args in [
        ["capacity", "--family", "symmetric", "--param", "0.7", "--mu", "0.5"],
        ["capacity", "--family", "symmetric", "--param", "0.3", "--mu", "1.5"],
        ["capacity", "--family", "symmetric", "--mu", "0.5"],
        ["capacity", *point, "--bogus"],
        ["--bogus", "capacity", *point],
        ["capacity", "--mu", "0.5"],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--steps", "1"],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3",
         "--mu-min", "0.5", "--mu-max", "0.2"],
        ["threshold", "--p", "0.6"],
        ["nonsense"],
        # The search settings are checked even where the closed form needs no search.
        ["capacity", *point, "--restarts", "0"],
        ["capacity", *point, "--tolerance", "-1"],
        ["capacity", *point, "--tolerance", "nan"],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--restarts", "0"],
        ["moe", *point, "--restarts", "0"],
        ["capacity", "--q", "nan,0.5,0.25,0.25", "--mu", "0.3"],
        # A --q value that starts with "-" is read as the value in either spelling.
        ["capacity", "--q", "-0.1,0.6,0.25,0.25", "--mu", "0.3"],
        ["capacity", "--q=-0.1,0.6,0.25,0.25", "--mu", "0.3"],
        ["capacity", "--q", "--mu", "0.3"],
        # Custom weights take no family weight.
        ["capacity", "--q", "0.4,0.3,0.2,0.1", "--param", "0.3", "--mu", "0.5"],
        ["moe", "--q", "0.4,0.3,0.2,0.1", "--param", "0.3", "--mu", "0.5"],
        ["sweep-mu", "--q", "0.4,0.3,0.2,0.1", "--param", "0.3", "--steps", "2"],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--steps", "2", "--threads=-3"],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--steps", "2", "--threads", "0"],
        # sweep-p takes its weight range from --param-min/--param-max only.
        ["sweep-p", "--family", "symmetric", "--mu", "0.5", "--param", "0.9", "--steps", "2"],
        ["sweep-p", "--family", "symmetric", "--mu", "0.5", "--q", "1,0,0,0", "--steps", "2"],
        ["sweep-p", "--family", "symmetric", "--mu", "0.5", "--param", "0.9",
         "--q", "1,0,0,0", "--steps", "2"],
        ["sweep-p", "--family", "custom", "--mu", "0.5", "--steps", "2"],
        ["sweep-p", "--mu", "0.5", "--steps", "2"],
        # --mu is required wherever one point's memory is taken from it.
        ["sweep-p", "--family", "symmetric", "--steps", "2"],
        ["capacity", "--family", "symmetric", "--param", "0.3"],
        ["moe", "--q", "0.4,0.3,0.2,0.1"],
        # An --out path that cannot be written is rejected before any computation.
        ["capacity", *point, "--out", missing],
        ["capacity", *point, "--out", str(tmp_path)],
        ["moe", *point, "--out", missing],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--out", missing],
        ["sweep-p", "--family", "symmetric", "--mu", "0.5", "--out", str(tmp_path)],
        ["threshold", "--p", "0.3", "--out", missing],
        ["threshold", "--p", "0.3", "--out", str(tmp_path)],
        ["verify", "--grid-density", "low", "--out", missing],
        # An empty --out names no file.
        ["threshold", "--p", "0.3", "--out", ""],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--out", ""],
        ["verify", "--grid-density", "low", "--out", ""],
        ["verify", "--seed", "-1"],
    ]:
        with mock.patch.multiple(cli, **COMPUTATIONS), mock.patch.object(
            checks, "CHECKS", UNREACHABLE_CHECKS
        ):
            errors[" ".join(args)] = assert_usage_error(args)
    assert list(tmp_path.iterdir()) == []
    # Each command names itself in its errors, and the library's check words the seed's.
    assert errors["capacity --family symmetric --param 0.3 --mu 1.5"] == (
        "paulimem capacity: error: mu must lie in [0, 1], got 1.5"
    )
    assert errors["verify --seed -1"] == (
        "paulimem verify: error: seed must be a nonnegative integer, got -1"
    )
    assert errors["capacity --family symmetric --param 0.3"] == (
        "paulimem capacity: error: the following arguments are required: --mu"
    )
    # An unknown option is reported by the command it was given to, or by the
    # top-level parser when it comes before the command.
    assert errors["capacity --family symmetric --param 0.3 --mu 0.5 --bogus"] == (
        "paulimem capacity: error: unrecognized arguments: --bogus"
    )
    assert errors["--bogus capacity --family symmetric --param 0.3 --mu 0.5"] == (
        "paulimem: error: unrecognized arguments: --bogus"
    )
    assert errors["sweep-p --family symmetric --mu 0.5 --q 1,0,0,0 --steps 2"] == (
        "paulimem sweep-p: error: unrecognized arguments: --q 1,0,0,0"
    )
    assert errors["capacity --q 0.4,0.3,0.2,0.1 --param 0.3 --mu 0.5"] == (
        "paulimem capacity: error: --param is not valid with --q"
    )
    # A non-finite weight is named as such, not as a bad sum.
    assert errors["capacity --q nan,0.5,0.25,0.25 --mu 0.3"] == (
        "paulimem capacity: error: q must be finite, got nan"
    )
    assert errors["capacity --q -0.1,0.6,0.25,0.25 --mu 0.3"] == (
        "paulimem capacity: error: q must be nonnegative, got min -0.1"
    )
    assert errors["capacity --q=-0.1,0.6,0.25,0.25 --mu 0.3"] == (
        errors["capacity --q -0.1,0.6,0.25,0.25 --mu 0.3"]
    )
    # An option after --q is still an option, not its value.
    assert errors["capacity --q --mu 0.3"] == (
        "paulimem capacity: error: argument --q: expected one argument"
    )


@pytest.mark.parametrize("q", ["-0.1,0.6,0.25,0.25", "-0.0,0.5,0.25,0.25"])
def test_a_q_value_that_starts_with_a_minus_reads_alike_in_both_spellings(q):
    spaced = run_captured(["capacity", "--q", q, "--mu", "0.3", "--json"])
    assert spaced == run_captured(["capacity", f"--q={q}", "--mu", "0.3", "--json"])
    assert spaced[0] == (0 if q.startswith("-0.0") else 2)


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["capacity", "--family", "symmetric", "--param", "0.3"], "--mu", "-1e-3"),
        (["capacity", "--family", "symmetric", "--param", "0.3"], "--mu", "-inf"),
        (["capacity", "--family", "symmetric", "--mu", "0.3"], "--param", "-1e-3"),
        (["sweep-mu", "--family", "symmetric", "--param", "0.3"], "--mu-min", "-inf"),
        (["capacity", "--mu", "0.3"], "--q", "-inf,0.5,0.25,0.25"),
        (["capacity", "--mu", "0.3"], "--q", "-1e-3,0.5,0.25,0.25"),
        # Prefixes that name one option, as argparse reads them.
        (["sweep-mu", "--family", "symmetric", "--param", "0.3"], "--mu-ma", "-1e-3"),
        (["capacity", "--family", "symmetric", "--param", "0.3"], "--m", "-inf"),
        (["capacity", "--family", "symmetric", "--mu", "0.3"], "--par", "-1e-3"),
    ],
    ids=["mu", "mu-inf", "param", "mu-min-inf", "q-inf", "q", "mu-ma", "m-inf", "par"],
)
def test_a_negative_value_reads_alike_in_both_spellings(argv, option, value):
    spaced = run_captured([*argv, option, value])
    assert spaced == run_captured([*argv, f"{option}={value}"])
    assert spaced[0] == 2 and "expected one argument" not in spaced[2]


def test_an_ambiguous_prefix_takes_no_negative_value():
    code, out, err = run_captured(["sweep-mu", "--q", "0.4,0.3,0.2,0.1", "--mu", "-1e-3"])
    assert (code, out) == (2, "")
    assert err.endswith("error: ambiguous option: --mu could match --mu-min, --mu-max\n")


@pytest.mark.parametrize("value", ["-", "--json"])
def test_a_lone_minus_or_an_option_is_not_read_as_a_value(value):
    argv = ["capacity", "--family", "symmetric", "--param", "0.3", "--mu", value]
    code, out, err = run_captured(argv)
    assert (code, out) == (2, "")
    expected = "invalid float value: '-'" if value == "-" else "expected one argument"
    assert err.endswith(f"error: argument --mu: {expected}\n")


#: Each command's long options, in the order its usage lists them.
HELP_OPTIONS = {
    "capacity": "--family --param --q --mu --seed --out --json --restarts --tolerance"
    " --per-qubit --numeric",
    "sweep-mu": "--family --param --q --seed --out --json --restarts --tolerance --threads"
    " --per-qubit --numeric --mu-min --mu-max --steps",
    "sweep-p": "--family --mu --seed --out --json --restarts --tolerance --threads"
    " --per-qubit --numeric --param-min --param-max --steps",
    "threshold": "--p --out --json",
    "moe": "--family --param --q --mu --seed --out --json --restarts --tolerance",
    "verify": "--grid-density --seed --out",
}
#: The options a command requires; its usage shows them without brackets.
REQUIRED_OPTIONS = {
    "capacity": {"--mu"}, "moe": {"--mu"}, "sweep-p": {"--family", "--mu"}, "threshold": {"--p"}
}
#: What an option that an argv leaves out parses to; every other one parses to None.
PARSED_DEFAULTS = {
    "seed": 42, "restarts": 64, "tolerance": 1e-9, "threads": 1, "mu_min": 0.0, "mu_max": 1.0,
    "grid_density": "default", "json": False, "per_qubit": False, "numeric": False,
}
STEPS_DEFAULTS = {"sweep-mu": 101, "sweep-p": 51}


def _option_descriptions(help_text: str) -> dict[str, str]:
    """The description ('' if none) of each option of a ``--help`` output, by long name."""
    lines = help_text.split("\noptions:\n")[1].splitlines()
    found = {}
    for k, line in enumerate(lines):
        if line.startswith("  -"):
            option, _, text = line.strip().partition("  ")
            follow = lines[k + 1] if k + 1 < len(lines) else ""
            if not text and follow.startswith("   ") and not follow.lstrip().startswith("-"):
                text = follow  # argparse puts it on the next line after a long option
            found[re.search(r"--[\w-]+", option)[0]] = text.strip()
    return found


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_lists_only_the_options_a_command_accepts(command):
    code, out, _ = run_captured([command, "--help"])
    assert code == 0
    usage = " ".join(out.split("\n\n")[0].split())
    options = re.findall(r"--[\w-]+", usage)
    assert options == HELP_OPTIONS[command].split()
    optional = re.findall(r"\[(--[\w-]+)", usage)
    assert set(options) - set(optional) == REQUIRED_OPTIONS.get(command, set())
    if command == "sweep-p":
        # sweep-p takes a family and a weight range, never one weight or custom weights.
        assert " --family {symmetric,depolarizing} " in usage
        assert not {"--q", "--param"} & set(re.findall(r"--[\w-]+", out))
        assert "custom" not in out
    # Each option the valid base leaves out (here also --steps) parses to its default.
    base = " ".join(FUZZ_BASES[command]).replace("--steps 3", "").split()
    args = cli._build_parser().parse_args([command, *base])
    for option in set(options) - set(base):
        dest = option[2:].replace("-", "_")
        expected = STEPS_DEFAULTS[command] if dest == "steps" else PARSED_DEFAULTS.get(dest)
        value = getattr(args, dest)
        assert (value, type(value)) == (expected, type(expected)), (command, option)


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_every_option_of_a_command_prints_a_description(command):
    code, out, _ = run_captured([command, "--help"])
    assert code == 0
    descriptions = _option_descriptions(out)
    assert set(descriptions) == {"--help", *HELP_OPTIONS[command].split()}
    assert all(descriptions.values()), descriptions
    if command in STEPS_DEFAULTS:  # a default that differs by command is stated where it applies
        assert f"(default {STEPS_DEFAULTS[command]})" in descriptions["--steps"]


SWEEP_MU = ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--steps", "3"]


def test_sweep_words_a_bad_base_seed_like_the_other_commands():
    with mock.patch.multiple(cli, **COMPUTATIONS):
        assert assert_usage_error(SWEEP_MU + ["--seed", "-5"]) == (
            "paulimem sweep-mu: error: seed must be a nonnegative integer, got -5"
        )


def test_sweep_names_a_non_finite_bound_by_its_option():
    with mock.patch.multiple(cli, **COMPUTATIONS):
        assert assert_usage_error(SWEEP_MU + ["--mu-max", "inf"]) == (
            "paulimem sweep-mu: error: --mu-max must be finite, got inf"
        )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "args",
    [
        ["threshold", "--p", "0.3"],
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--steps", "2"],
    ],
)
def test_failed_write_exits_2(args):
    error = assert_usage_error(args + ["--out", "/dev/full"])
    assert error.endswith("error: cannot write /dev/full: No space left on device")


def _traced_peak(argv):
    """Peak traced Python allocation, in bytes, of one in-process CLI call."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_closed_form_sweep_holds_its_rows_in_bounded_memory(tmp_path):
    out = ["--out", str(tmp_path / "sweep.csv")]
    _traced_peak(SWEEP_MU + out)  # one-time allocations: parser, caches
    small = _traced_peak(SWEEP_MU[:-1] + ["1000"] + out)
    large = _traced_peak(SWEEP_MU[:-1] + ["10000"] + out)
    assert large - small <= 1_000_000, (small, large)
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 10_001


def test_a_sweep_checks_its_grid_a_block_of_values_at_a_time():
    # At its first value the rule sees the grid array, 8 bytes a step, and one
    # block of Python floats, not a list of the whole grid, about 32 bytes more a step.
    def traced_at_first_value(steps):
        held = []

        def rule(value):
            held.append(tracemalloc.get_traced_memory()[0])
            raise ValueError("stop")

        tracemalloc.start()
        try:
            with mock.patch.object(cli, "require_memory_factor", rule):
                assert assert_usage_error(SWEEP_MU[:-1] + [str(steps)]).endswith("error: stop")
        finally:
            tracemalloc.stop()
        return held[0]

    small, large = traced_at_first_value(1_000), traced_at_first_value(1_000_000)
    assert large - small <= 9_000_000, (small, large)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_sweep_that_fails_midway_through_its_rows_exits_2():
    # 5 000 rows overflow the file buffer, so a write fails while blocks remain.
    code, out, err = run_captured(SWEEP_MU[:-1] + ["5000", "--out", "/dev/full"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        "paulimem sweep-mu: error: cannot write /dev/full: No space left on device"
    )
    assert err.count("error:") == 1 and "Traceback" not in err


def test_closed_stdout_exits_2_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the command's first write to stdout fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "paulimem.cli", "threshold", "--p", "0.3"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "paulimem threshold: error: cannot write standard output: Broken pipe"
    )
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


@pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
def test_closed_descriptor_exits_2_without_traceback():
    # With descriptor 1 closed at start, Python sets sys.stdout to None.
    proc = subprocess.run(
        [sys.executable, "-m", "paulimem.cli", "threshold", "--p", "0.3"],
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        "paulimem threshold: error: cannot write standard output: Bad file descriptor"
    )
    assert "Traceback" not in proc.stderr


def outside(lo, hi):
    """Non-finite floats and finite ones outside [lo, hi]."""
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(max_value=lo, exclude_max=True),
        st.floats(min_value=hi, exclude_min=True),
    )


def ints_below(n):
    return st.one_of(st.sampled_from(["nan", "inf"]), st.integers(max_value=n - 1))


UNIT, HALF = outside(0.0, 1.0), outside(0.0, 0.5)
WEIGHTS = outside(0.0, 1.0).map(lambda x: f"{x},{0.5 - x},0.25,0.25")
SEARCH = {
    "--tolerance": st.one_of(st.sampled_from([math.nan, math.inf]), st.floats(max_value=0.0)),
    # A size above its cap is rejected before any array of that size is built.
    "--restarts": st.one_of(ints_below(1), st.integers(min_value=10_001)),
    "--seed": ints_below(0),
}
SWEEP = {
    **SEARCH,
    "--steps": st.one_of(ints_below(2), st.integers(min_value=1_000_001)),
    "--threads": ints_below(1),
}
SYMMETRIC = ("--family", "symmetric", "--param", "0.3")
DEPOLARIZING = ("--family", "depolarizing", "--param", "0.7")

# Valid argv of each command -> the option set to a bad value, and its bad values.
BAD_OPTIONS = {
    ("capacity", *SYMMETRIC, "--mu", "0.5"): {"--param": HALF, "--mu": UNIT, **SEARCH},
    ("capacity", *DEPOLARIZING, "--mu", "0.5"): {"--param": UNIT},
    ("capacity", "--mu", "0.5"): {"--q": WEIGHTS},
    ("moe", *SYMMETRIC, "--mu", "0.5"): {"--param": HALF, "--mu": UNIT, **SEARCH},
    ("sweep-mu", *SYMMETRIC, "--steps", "3"): {
        "--param": HALF, "--mu-min": UNIT, "--mu-max": UNIT, **SWEEP
    },
    ("sweep-mu", "--steps", "3"): {"--q": WEIGHTS},
    ("sweep-p", "--family", "depolarizing", "--mu", "0.5", "--steps", "3"): {
        "--mu": UNIT, "--param-min": UNIT, "--param-max": UNIT, **SWEEP
    },
    ("threshold", "--p", "0.3"): {"--p": HALF},
}
BAD_ARGVS = st.sampled_from(
    [(base, option, bad) for base, options in BAD_OPTIONS.items() for option, bad in options.items()]
).flatmap(lambda case: case[2].map(lambda value: [*case[0], f"{case[1]}={value}"]))


@settings(max_examples=200, deadline=None, database=None)
@given(BAD_ARGVS)
def test_rejected_option_values_exit_2_before_any_search(args):
    with mock.patch.multiple(cli, **COMPUTATIONS), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_usage_error(args)


#: A valid argv of each command, which a drawn argv may start from.
FUZZ_BASES = {
    "capacity": ("--family", "symmetric", "--param", "0.3", "--mu", "0.5"),
    "sweep-mu": ("--q", "0.4,0.3,0.2,0.1", "--steps", "3"),
    "sweep-p": ("--family", "depolarizing", "--mu", "0.5", "--steps", "3"),
    "threshold": ("--p", "0.3"),
    "moe": ("--family", "symmetric", "--param", "0.3", "--mu", "0.5", "--restarts", "2"),
    "verify": ("--grid-density", "low"),
}
_CHANNEL = ("--family", "--param", "--q", "--mu")
_COMMON = ("--seed", "--out", "--json", "--restarts", "--tolerance", "--help")
_SWEEP = ("--threads", "--steps", "--per-qubit")
#: Each command's options but --numeric; sweep-p's also hold --param and --q,
#: which it rejects.
FUZZ_OPTIONS = {
    "capacity": (*_CHANNEL, *_COMMON, "--per-qubit"),
    "sweep-mu": (*_CHANNEL[:3], *_COMMON, *_SWEEP, "--mu-min", "--mu-max"),
    "sweep-p": (*_CHANNEL, *_COMMON, *_SWEEP, "--param-min", "--param-max"),
    "threshold": ("--p", "--out", "--json", "--help"),
    "moe": (*_CHANNEL, *_COMMON),
    "verify": ("--grid-density", "--seed", "--out", "--help"),
}
#: Unknown or ambiguous options, none an abbreviation of --numeric, other
#: commands' options and stray positionals.
FUZZ_JUNK = [
    "--bogus", "--mu-", "--par", "-x", "--p", "--grid-density", "--steps", "extra", "verify"
]
#: No integer in [6, MAX_STEPS], so a drawn --steps asks for at most 5 points and
#: a drawn --restarts for at most 5 restarts; a larger one is rejected before any work.
FUZZ_VALUES = [
    "0", "1", "2", "5", "-1", "-7", "0.3", "0.5", "1e-9", "nan", "inf", "-inf", "1e309",
    "-1e400", "1e20", "123456789012345678901234567890", "-123456789012345678901234567890",
    "symmetric", "depolarizing", "custom", "low", "high", "0.4,0.3,0.2,0.1", "0.5,0.5",
    "nan,0.5,0.25,0.25", "inf,0,0,0", "1,0,0,0", "", "abc", "-", os.devnull, ".",
    "/nonexistent-folder/out.csv",
]
#: Verify's checks, each passing at once, so that a drawn verify stays fast;
#: the real checks run in test_verify_passes_and_is_deterministic.
PASSING_CHECKS = tuple((name, lambda *draw: 0.0, tol) for name, _, tol in checks.CHECKS)


@st.composite
def fuzz_argvs(draw):
    """A command or junk, maybe its valid base, then up to 5 of: one of its
    options with a value, joined by ``=`` or missing (or a flag), and junk."""
    command = draw(st.sampled_from([*FUZZ_BASES, "--help", "nope"]))
    option = st.sampled_from(FUZZ_OPTIONS.get(command, FUZZ_JUNK))
    value = st.sampled_from(FUZZ_VALUES)
    pairs = st.one_of(
        st.tuples(option, value),
        st.builds("{}={}".format, option, value).map(lambda token: (token,)),
        st.tuples(option),
        st.tuples(st.sampled_from(FUZZ_JUNK)),
    )
    base = FUZZ_BASES.get(command, ()) if draw(st.booleans()) else ()
    tokens = [token for pair in draw(st.lists(pairs, max_size=5)) for token in pair]
    return [command, *base, *tokens]


@settings(max_examples=300, deadline=None, database=None)
@given(fuzz_argvs())
def test_no_argv_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    # Any drawn value may be an --out path; a relative one lands in a fresh folder.
    with tempfile.TemporaryDirectory() as folder, mock.patch.object(
        checks, "CHECKS", PASSING_CHECKS
    ):
        os.chdir(folder)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                assert main(argv) in (0, 1, 2, 3), argv
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code, err.getvalue())
        finally:
            os.chdir(cwd)


def test_sweep_mu_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep-mu", "--family", "symmetric", "--param", "0.35", "--steps", "11",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,param,mu,s_min_bits,capacity_bits,regime,method"
    assert len(lines) == 12
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "Symmetric"
        assert fields[6] == "Analytic"
        s_min, cap = float(fields[3]), float(fields[4])
        # 9-significant-digit printing rounds values near 2 at the 1e-8
        # place; the unrounded records satisfy the identity at 1e-9
        # (covered by the JSON round-trip test below).
        assert abs(cap - (2.0 - s_min)) < 1.1e-8
    # endpoints inclusive
    assert float(lines[1].split(",")[2]) == 0.0
    assert float(lines[-1].split(",")[2]) == 1.0


def test_sweep_mu_regimes_switch_at_threshold(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(
        ["sweep-mu", "--family", "symmetric", "--param", "0.35", "--steps", "21",
         "--out", str(out)]
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    for fields in rows:
        mu = float(fields[2])
        if mu < 0.4 - 1e-9:
            assert fields[5] == "Product"
        elif mu > 0.4 + 1e-9:
            assert fields[5] == "Entangled"
        else:
            assert fields[5] == "Boundary"


def test_sweep_mu_kink_located_by_second_difference(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli(
        ["sweep-mu", "--family", "symmetric", "--param", "0.35", "--steps", "101",
         "--out", str(out)]
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    mus = np.array([float(r[2]) for r in rows])
    caps = np.array([float(r[4]) for r in rows])
    # Away from mu=1, where the capacity's slope diverges logarithmically
    # (an eigenvalue pair reaches zero there), the threshold kink carries
    # the largest second difference.
    interior = mus[1:-1] <= 0.95
    second_diff = np.abs(np.diff(caps, 2))[interior]
    assert abs(mus[1:-1][interior][int(np.argmax(second_diff))] - 0.4) < 1e-12


def test_sweep_p_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep-p", "--family", "symmetric", "--mu", "0.5", "--steps", "6",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    params = [float(line.split(",")[1]) for line in lines[1:]]
    assert params == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]


def test_sweep_depolarizing_identity_limit(tmp_path):
    args = ["sweep-mu", "--family", "depolarizing", "--param", "1.0", "--steps", "3",
            "--restarts", "6"]
    for extra, method in ((["--numeric"], "Numeric"), ([], "Analytic")):
        out = tmp_path / f"sweep{len(extra)}.csv"
        code = run_cli(args + extra + ["--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[6] == method
            assert abs(float(fields[4]) - 2.0) < 1e-9


SWEEP_DEPOLARIZING = ["sweep-mu", "--family", "depolarizing", "--param", "0.7", "--steps", "5",
                      "--restarts", "6", "--seed", "7"]


def _sweep_bytes_across_runs_and_threads(args, tmp_path):
    paths = [tmp_path / f"s{i}.csv" for i in range(3)]
    assert run_cli(args + ["--threads", "1", "--out", str(paths[0])]) == 0
    assert run_cli(args + ["--threads", "1", "--out", str(paths[1])]) == 0
    assert run_cli(args + ["--threads", "4", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    return blobs[0].decode()


def test_sweep_bytes_stable_across_runs_and_threads(tmp_path):
    text = _sweep_bytes_across_runs_and_threads(SWEEP_DEPOLARIZING, tmp_path)
    assert [row.split(",")[6] for row in text.splitlines()[1:]] == ["Analytic"] * 5


def test_numeric_sweep_bytes_stable_across_runs_and_threads(tmp_path):
    # The seeded search, not the closed form, must give the same bytes on every run.
    text = _sweep_bytes_across_runs_and_threads(SWEEP_DEPOLARIZING + ["--numeric"], tmp_path)
    assert [row.split(",")[6] for row in text.splitlines()[1:]] == ["Numeric"] * 5


def test_sweep_json_round_trip(tmp_path):
    out = tmp_path / "sweep.json"
    code = run_cli(
        ["sweep-mu", "--family", "symmetric", "--param", "0.3", "--steps", "5",
         "--json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 5
    for rec in payload:
        assert set(rec) == {
            "family", "param", "mu", "s_min_bits", "capacity_bits", "regime", "method"
        }
        assert abs(rec["capacity_bits"] - (2.0 - rec["s_min_bits"])) < 1e-9
    # A sweep row holds the same values as the point report of its channel.
    code, text, _ = run_captured(
        ["capacity", "--family", "symmetric", "--param", "0.3", "--mu", "0", "--json"]
    )
    point = json.loads(text)
    assert code == 0 and point["state"]
    assert {key: point[key] for key in payload[0]} == payload[0]


def test_closed_form_sweep_has_the_bytes_of_single_points():
    # The X-optimal channel's regime switches at mu = 0.7979798..., between grid points.
    code, text, err = run_captured(
        ["sweep-mu", "--q", "0.5,0.05,0.4,0.05", "--steps", "101", "--json"]
    )
    assert (code, err) == (0, "")
    weights = [0.5, 0.05, 0.4, 0.05]
    q = tuple(w / sum(weights) for w in weights)
    rows = []
    for mu in np.linspace(0.0, 1.0, 101):
        result = two_qubit_capacity(ChannelSpec(q, float(mu)))
        rows.append({
            "family": "Custom", "param": None, "mu": float(mu),
            "s_min_bits": result.s_min_bits, "capacity_bits": result.chi_bits,
            "regime": result.regime.value, "method": "Analytic",
        })
    assert text == json.dumps(rows, indent=2, allow_nan=False) + "\n"
    regimes = [row["regime"] for row in rows]
    assert regimes == ["Product"] * 80 + ["Entangled"] * 21


def _point_rows(family, points, results, key, halve):
    """The sweep records of ``points``, whose ``results`` were each computed alone
    by ``two_qubit_capacity``."""
    return [
        {
            "family": family, "param": param, "mu": mu, "s_min_bits": result.s_min_bits,
            key: result.chi_bits / 2.0 if halve else result.chi_bits,
            "regime": result.regime.value, "method": "Analytic",
        }
        for (param, mu), result in zip(points, results)
    ]


def _point_text(rows, as_json):
    """``rows`` as the sweep writes them: one JSON array, or CSV at 9 digits."""
    if as_json:
        rows = [{k: None if v != v else v for k, v in row.items()} for row in rows]
        return json.dumps(rows, indent=2, allow_nan=False) + "\n"
    cells = [[f"{v:.9g}" if isinstance(v, float) else v for v in row.values()] for row in rows]
    return "".join(",".join(line) + "\n" for line in [list(rows[0]), *cells])


#: Each family's spec builder and weight range.
PRESETS = {"symmetric": (preset_symmetric, 0.5), "depolarizing": (preset_depolarizing, 1.0)}
#: X-optimal, Y-optimal and Bell-optimal custom channels.
CUSTOM_Q = [(0.5, 0.05, 0.4, 0.05), (0.5, 0.05, 0.05, 0.4), (0.4, 0.3, 0.2, 0.1)]


def _sweep_cases(seed):
    """Seeded sweeps: (argv, family label, spec builder, grid points).

    Each symmetric grid has an end on the paper's threshold ``mu = |4p - 1|``.
    """
    rng = np.random.default_rng(seed)
    steps = [2, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5]
    for k in range(144):
        n = steps[k % 4]
        kind = ("symmetric", "depolarizing", "custom")[k // 4 % 3]
        if kind == "custom":
            weights = CUSTOM_Q[k % 3] if k % 24 < 12 else rng.dirichlet(np.ones(4)).tolist()
            q = tuple(w / sum(weights) for w in weights)  # as --q renormalizes
            family, param, build = "Custom", math.nan, lambda _, mu, q=q: ChannelSpec(q, mu)
            channel = ["--q", ",".join(map(repr, weights))]
        else:
            (build, upper), family = PRESETS[kind], kind.capitalize()
        if kind == "custom" or k // 12 % 2 == 0:
            if kind != "custom":
                param = float(rng.uniform(0.0, upper))
                channel = ["--family", kind, "--param", repr(param)]
            lo, hi = sorted(rng.uniform(0.0, 1.0, 2).tolist())
            if kind == "symmetric":
                edge = abs(4.0 * param - 1.0)
                lo, hi = (edge, max(hi, edge)) if k % 2 else (min(lo, edge), edge)
            argv = ["sweep-mu", *channel, "--mu-min", repr(lo), "--mu-max", repr(hi)]
            points = [(param, mu) for mu in np.linspace(lo, hi, n).tolist()]
        else:
            mu = float(rng.uniform(0.0, 1.0))
            lo, hi = sorted(rng.uniform(0.0, upper, 2).tolist())
            if kind == "symmetric":  # p = (1 - mu) / 4 or (1 + mu) / 4
                lo, hi = ((1.0 - mu) / 4.0, max(hi, (1.0 - mu) / 4.0)) if k % 2 else (
                    min(lo, (1.0 + mu) / 4.0), (1.0 + mu) / 4.0)
            argv = ["sweep-p", "--family", kind, "--mu", repr(mu),
                    "--param-min", repr(lo), "--param-max", repr(hi)]
            points = [(p, mu) for p in np.linspace(lo, hi, n).tolist()]
        yield [*argv, "--steps", str(n)], family, build, points


def test_sweep_rows_have_the_bits_of_points_computed_alone():
    total = 0
    for argv, family, build, points in _sweep_cases(2024):
        total += len(points)
        results = [two_qubit_capacity(build(param, mu)) for param, mu in points]
        for extra in ([], ["--json"], ["--per-qubit"], ["--json", "--per-qubit"]):
            halve = "--per-qubit" in extra
            key = "capacity_bits_per_qubit" if halve else "capacity_bits"
            rows = _point_rows(family, points, results, key, halve)
            expected = _point_text(rows, "--json" in extra)
            assert run_captured(argv + extra) == (0, expected, ""), argv + extra
    assert total >= 3000


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        ("sweep-p --family symmetric --mu 0.5 --param-min 0.4 --param-max 0.7 --steps 4",
         "symmetric-family weight p must lie in [0, 1/2], got 0.6"),
        ("sweep-mu --family symmetric --param 0.3 --mu-min -0.5 --steps 4",
         "mu must lie in [0, 1], got -0.5"),
        ("sweep-mu --family symmetric --param 0.3 --mu-max 1.5 --steps 5",
         "mu must lie in [0, 1], got 1.125"),
        ("sweep-mu --family symmetric --param 0.7 --mu-min -1 --steps 3",
         "symmetric-family weight p must lie in [0, 1/2], got 0.7"),
        ("sweep-mu --family depolarizing --param 1.5 --steps 3",
         "depolarizing weight x must lie in [0, 1], got 1.5"),
        ("sweep-mu --q 0.4,0.3,0.2,0.1 --mu-min 0.5 --mu-max 1.25 --steps 4",
         "mu must lie in [0, 1], got 1.25"),
        ("sweep-mu --q inf,0,0,0 --mu-min -1 --steps 3", "q must be finite, got inf"),
        ("sweep-p --family depolarizing --mu 0.5 --param-max 1.3 --steps 4",
         "depolarizing weight x must lie in [0, 1], got 1.3"),
        ("sweep-p --family depolarizing --mu 1.5 --steps 3", "mu must lie in [0, 1], got 1.5"),
        ("sweep-p --family symmetric --mu 1.5 --param-min -0.1 --steps 3",
         "symmetric-family weight p must lie in [0, 1/2], got -0.1"),
        # The first point fails on the constant axis, a later one on the varying axis.
        ("sweep-p --family symmetric --mu 1.5 --param-max 0.7 --steps 3",
         "mu must lie in [0, 1], got 1.5"),
        ("sweep-p --family depolarizing --mu nan --steps 3", "mu must lie in [0, 1], got nan"),
        ("sweep-mu --family depolarizing --param 0.5 --mu-min 0.2 --mu-max 1.5 --steps 4",
         "mu must lie in [0, 1], got 1.0666666666666667"),
    ],
)
def test_a_sweep_names_its_first_bad_grid_point(argv, message):
    command = argv.split()[0]
    with mock.patch.multiple(cli, **COMPUTATIONS):
        assert assert_usage_error(argv.split()) == f"paulimem {command}: error: {message}"


def test_closed_form_sweep_derives_no_search_seed(tmp_path):
    with mock.patch.object(checks, "point_seed", _unreachable):
        assert run_cli(SWEEP_MU + ["--out", str(tmp_path / "sweep.csv")]) == 0


def test_custom_sweep_has_nan_param(tmp_path):
    args = ["sweep-mu", "--q", "0.4,0.3,0.2,0.1", "--steps", "3", "--restarts", "6"]
    for extra, method in ((["--numeric"], "Numeric"), ([], "Analytic")):
        out = tmp_path / f"sweep{len(extra)}.csv"
        code = run_cli(args + extra + ["--out", str(out)])
        assert code == 0
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[0] == "Custom"
            assert fields[1] == "nan"
            assert fields[6] == method
    # JSON has no nan: the custom channel's param is null.
    code, text, _ = run_captured(
        ["sweep-mu", "--q", "0.4,0.3,0.2,0.1", "--steps", "2", "--restarts", "6", "--json"]
    )
    assert code == 0 and text.count('"param": null') == 2
    assert [rec["param"] for rec in json.loads(text)] == [None, None]


def test_threshold_report(tmp_path):
    out = tmp_path / "t.txt"
    assert run_cli(["threshold", "--p", "0.35", "--out", str(out)]) == 0
    text = out.read_text()
    assert "mu_t_analytic: 0.4" in text
    numeric = float(
        next(line for line in text.splitlines() if line.startswith("mu_t_numeric"))
        .split(":")[1]
    )
    assert abs(numeric - 0.4) <= 1e-4


def test_threshold_json_slopes(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli(["threshold", "--p", "0.35", "--json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["right_slope"] - payload["left_slope"] > 0.1


def test_threshold_magnitude_note_below_quarter(tmp_path):
    out = tmp_path / "t.txt"
    assert run_cli(["threshold", "--p", "0.15", "--out", str(out)]) == 0
    text = out.read_text()
    assert "mu_t_analytic: 0.4" in text
    assert "note:" in text and "magnitude" in text


def test_threshold_no_interior(tmp_path):
    out = tmp_path / "t.txt"
    assert run_cli(["threshold", "--p", "0.25", "--out", str(out)]) == 0
    assert "no interior threshold" in out.read_text()


def test_moe_reports_search_result(tmp_path):
    out = tmp_path / "moe.json"
    code = run_cli(
        ["moe", "--family", "symmetric", "--param", "0.3", "--mu", "0.5",
         "--restarts", "8", "--json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert abs(payload["entropy_bits"] - 1.536721674438358) < 1e-6
    assert payload["method"] == "GlobalSearch"
    assert payload["converged"] is True
    assert payload["restarts_used"] == 8
    coeffs = payload["schmidt_coefficients"]
    assert abs(coeffs[0] - np.sqrt(0.5)) < 1e-4


def test_unconfirmed_search_exits_3(capsys, tmp_path):
    # A single restart cannot confirm itself, so the search reports
    # non-convergence and the report goes to standard error.
    code = run_cli(
        ["moe", "--family", "depolarizing", "--param", "0.7", "--mu", "0.5",
         "--restarts", "1"]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "converged: false" in captured.err
    assert captured.out == ""

    out = tmp_path / "moe.txt"
    code = run_cli(
        ["moe", "--family", "depolarizing", "--param", "0.7", "--mu", "0.5",
         "--restarts", "1", "--out", str(out)]
    )
    assert code == 3 and not out.exists()

    capacity = ["capacity", "--family", "depolarizing", "--param", "0.7", "--mu", "0.5",
                "--restarts", "1"]
    assert run_cli(capacity + ["--numeric"]) == 3
    # Without --numeric no search runs, so there is nothing to confirm.
    assert run_captured(capacity)[0] == 0

    # An unconverged sweep still writes every row, then warns.
    out = tmp_path / "sweep.csv"
    code, stdout, stderr = run_captured(
        ["sweep-mu", "--family", "depolarizing", "--param", "0.7", "--steps", "2",
         "--restarts", "1", "--numeric", "--out", str(out)]
    )
    assert (code, stdout) == (3, "")
    assert stderr == "warning: numeric search did not converge at every grid point\n"
    lines = out.read_text().splitlines()
    assert lines[0] == "family,param,mu,s_min_bits,capacity_bits,regime,method"
    assert [line.split(",")[2] for line in lines[1:]] == ["0", "1"]


VERIFY_LOW = ["verify", "--grid-density", "low", "--seed", "5"]


@pytest.fixture(scope="module")
def verify_low():
    """Exit code, stdout and stderr of one unpatched ``VERIFY_LOW`` run."""
    return run_captured(VERIFY_LOW)


def test_verify_passes_and_is_deterministic(tmp_path, verify_low):
    out = tmp_path / "v.txt"
    assert run_cli(VERIFY_LOW + ["--out", str(out)]) == 0
    assert verify_low == (0, out.read_text(), "")
    text = out.read_text()
    count = len(checks.CHECKS)
    assert text.count("[PASS]") == count
    assert "[FAIL]" not in text
    assert f"{count}/{count} checks passed" in text


def test_verify_failing_check_exits_1(verify_low):
    # The failing row still makes its draws, so the rows after it see the same samples.
    name, check, tol = checks.CHECKS[2]
    failing = (name, lambda *draw: check(*draw) + 1.0, tol)
    with mock.patch.object(checks, "CHECKS", (*checks.CHECKS[:2], failing, *checks.CHECKS[3:])):
        code, out, err = run_captured(VERIFY_LOW)
    assert (code, err) == (1, "")
    lines, clean_lines = out.splitlines(), verify_low[1].splitlines()
    assert lines[3].startswith(f"[FAIL] {name}: ")
    assert lines[-1] == f"verify: {len(checks.CHECKS) - 1}/{len(checks.CHECKS)} checks passed"
    del lines[3], lines[-1], clean_lines[3], clean_lines[-1]
    assert lines == clean_lines
