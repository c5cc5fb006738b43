"""Config parsing, the field-expression grammar, and end-to-end CLI runs."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qma import cli
from qma.cli import (
    RunConfig,
    _render_json,
    main,
    parse_config,
    parse_field_expr,
    run_command,
)
from qma.errors import ConfigError
from qma.fields import InvShift, normsq, quadform
from qma.hamilton import QMatrix, Quaternion, random_qmatrix, random_quaternion, tau

PI2 = math.pi**2


# ---------------------------------------------------------------------------
# config parsing and rendering


def _render_value(v):
    if isinstance(v, bool):
        raise AssertionError("no boolean config values")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return ", ".join(_render_value(x) for x in v)
    return str(v)


def render_config(cfg):
    """Canonical text for a RunConfig; parse_config(render_config(c)) == c."""
    lines = ["[run]", f"command = {cfg.command}", f"n = {cfg.n}",
             f"seed = {cfg.seed}"]
    if cfg.fields:
        lines += ["", "[fields]"]
        lines += [f"{k} = {v}" for k, v in cfg.fields.items()]
    for section, data in (("quadrature", cfg.quadrature), ("params", cfg.params),
                          ("tolerances", cfg.tolerances)):
        if data:
            lines += ["", f"[{section}]"]
            lines += [f"{k} = {_render_value(data[k])}" for k in sorted(data)]
    lines += ["", "[output]", f"dir = {cfg.output_dir}",
              f"format = {cfg.output_format}"]
    return "\n".join(lines) + "\n"


def test_parse_config_minimal():
    cfg = parse_config("[run]\ncommand = verify\n")
    assert cfg == RunConfig(command="verify")
    assert cfg.n == 1 and cfg.seed == 0
    assert cfg.output_dir == "." and cfg.output_format == "both"
    # a zero tolerance is valid; negative ones are rejected (see below)
    zero = parse_config("[run]\ncommand = verify\n[tolerances]\nidentity = 0.0\n")
    assert zero.tolerances == {"identity": 0.0}


def test_parse_config_full_round_trip():
    text = textwrap.dedent("""\
        # full configuration
        [run]
        command = jensen
        n = 2
        seed = 42

        [fields]
        phi = normsq()
        v = x0^2 + 3/2

        [quadrature]
        sphere_pow = 8
        t_nodes = 24

        [params]
        r = 1.0

        [tolerances]
        jensen = 0.001

        [output]
        dir = out
        format = csv
        """)
    lelong_text = textwrap.dedent("""\
        [run]
        command = lelong
        n = 2

        [fields]
        u = invshift(0.001)

        [params]
        radii = 0.5, 1.0
        center = 0, 0, 0, 0, 0, 0, 0, 0
        """)
    cfg = parse_config(text)
    assert cfg.command == "jensen" and cfg.n == 2
    assert cfg.fields == {"phi": "normsq()", "v": "x0^2 + 3/2"}
    assert cfg.quadrature == {"sphere_pow": 8, "t_nodes": 24}
    assert cfg.params == {"r": 1.0}
    assert cfg.tolerances == {"jensen": 0.001}
    assert cfg.output_format == "csv"
    lelong = parse_config(lelong_text)
    assert lelong.params["radii"] == [0.5, 1.0]
    assert len(lelong.params["center"]) == 8
    # canonical text reproduces the same configuration exactly
    for c in (cfg, lelong):
        assert parse_config(render_config(c)) == c
        assert render_config(parse_config(render_config(c))) == render_config(c)


@pytest.mark.parametrize("text,match", [
    ("command = verify\n", "line 1: key outside any section"),
    ("[nope]\ncommand = verify\n", "line 1: unknown section"),
    ("[run\ncommand = verify\n", "line 1: malformed section header"),
    ("[run]\n[run]\ncommand = verify\n", "line 2: duplicate section"),
    ("[run]\ncommand = verify\nwhat = 3\n", "line 3: unknown key 'what'"),
    ("[run]\ncommand = verify\ncommand = ma\n", "line 3: duplicate key"),
    ("[run]\ncommand = verify\nn\n", "line 3: expected 'key = value'"),
    ("[run]\ncommand = verify\nn =\n", "line 3: empty value"),
    ("[run]\ncommand = verify\nn = two\n", "line 3: expected an integer"),
    ("[run]\ncommand = verify\n[params]\nr = abc\n", "line 4: expected a number"),
    ("[run]\ncommand = verify\n[params]\nradii = 1,,2\n", "line 4"),
    ("[run]\nn = 1\n", "missing required key 'command'"),
    ("[run]\ncommand = destroy\n", "unknown command 'destroy'"),
    ("[run]\ncommand = verify\nseed = -1\n", "unsigned 64-bit"),
    ("[run]\ncommand = verify\njobs = 4\n", "line 3: unknown key 'jobs' in \\[run\\]"),
    ("[run]\ncommand = jensen\n[quadrature]\ndelta = 0.01\n",
     "line 4: unknown key 'delta' in \\[quadrature\\]"),
    ("[run]\ncommand = jensen\n[params]\nlevel = 1.0\n",
     "line 4: unknown key 'level' in \\[params\\]"),
    ("[run]\ncommand = verify\n[tolerances]\nmass = -1e-6\n",
     "line 4: tolerance 'mass' must not be negative"),
    ("[run]\ncommand = jensen\n[quadrature]\nsphere_pow = 0\n",
     "line 4: 'sphere_pow' must be at least 1"),
    ("[run]\ncommand = jensen\n[quadrature]\nt_nodes = 8\nradial_nodes = 0\n",
     "line 5: 'radial_nodes' must be at least 1"),
    ("[run]\ncommand = jensen\n[quadrature]\nt_nodes = -1\n",
     "line 4: 't_nodes' must be at least 1"),
    # the layered term runs at sphere_pow - 1: one direction, no error estimate
    ("[run]\ncommand = jensen\n[quadrature]\nsphere_pow = 1\n",
     "line 4: jensen needs 'sphere_pow' at least 2, got 1"),
    # cln takes its sup norms along a fixed draw, which no key sizes
    ("[run]\ncommand = cln\n[quadrature]\nsup_samples = 100\n",
     "line 4: unknown key 'sup_samples' in \\[quadrature\\]"),
    # jensen's surface rule runs at sphere_pow + 1 and no rule draws more
    # than 2**30 directions; both used to fail in the rule, naming no line
    ("[run]\ncommand = jensen\n[quadrature]\nsphere_pow = 30\n",
     "line 4: jensen needs 'sphere_pow' at most 29 \\(at most 2\\*\\*30 directions "
     "per rule\\), got 30"),
    ("[run]\ncommand = lelong\n[quadrature]\nsphere_pow = 31\n",
     "line 4: lelong needs 'sphere_pow' at most 30 \\(at most 2\\*\\*30 directions "
     "per rule\\), got 31"),
    ("[run]\ncommand = cln\n[params]\ntrials = -4\n",
     "line 4: 'trials' must not be negative"),
    # an empty inner ball
    ("[run]\ncommand = cln\n[params]\ninner_radius = 0\n",
     "line 4: inner ball radius must be positive, got 0.0"),
    ("[run]\ncommand = cln\n[params]\nouter_radius = 2\ninner_radius = -1\n",
     "line 5: inner ball radius must be positive, got -1.0"),
    ("[run]\ncommand = verify\n[output]\nformat = yaml\n", "csv, json or both"),
    ("[run]\ncommand = verify\n[fields]\nnormsq = x0\n", "reserved"),
    ("[run]\ncommand = verify\n[fields]\nx3 = x0\n", "reserved"),
    ("[run]\ncommand = fundamental\n[quadrature]\nradial_nodes = 31\n",
     "line 4: 'radial_nodes' must be at least 32"),
    ("[run]\ncommand = ma\n[params]\nr = 0\n",
     "line 4: ball radius must be positive, got 0.0"),
    ("[run]\ncommand = fundamental\n[params]\neps = 0.1\nr = -2\n",
     "line 5: ball radius must be positive, got -2.0"),
])
def test_parse_config_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


@pytest.mark.parametrize("command, sphere_pow", [("jensen", 29), ("boundary", 29),
                                                 ("lelong", 30), ("cln", 30)])
def test_parse_config_accepts_sphere_pow_at_the_direction_limit(command, sphere_pow):
    # parsed only: a run at this bound draws 2**30 directions
    text = f"[run]\ncommand = {command}\n[quadrature]\nsphere_pow = {sphere_pow}\n"
    assert parse_config(text).quadrature == {"sphere_pow": sphere_pow}


# the keys each command reads outside [run] and [output] (fields None: any
# names), and a valid value for every key of the four sections
_READ_KEYS = {
    "verify": {"tolerances": ("identity", "moore", "positivity")},
    "ma": {"fields": None, "params": ("r",), "tolerances": ("moore",)},
    "fundamental": {"quadrature": ("radial_nodes",), "params": ("r", "eps"),
                    "tolerances": ("mass",)},
    "lelong": {"fields": ("u",), "quadrature": ("sphere_pow", "radial_nodes"),
               "params": ("radii", "center"), "tolerances": ("monotonicity",)},
    "jensen": {"fields": ("phi", "v"),
               "quadrature": ("t_nodes", "sphere_pow", "radial_nodes"),
               "params": ("r",), "tolerances": ("jensen", "jensen_layered")},
    "boundary": {"fields": ("phi",), "quadrature": ("sphere_pow", "radial_nodes"),
                 "params": ("r",), "tolerances": ("boundary", "positivity")},
    "cln": {"fields": None, "quadrature": ("sphere_pow", "radial_nodes"),
            "params": ("inner_radius", "outer_radius", "trials"),
            "tolerances": ("cln",)},
}
_KEY_VALUES = {
    "fields": dict.fromkeys(("u", "w", "phi", "v"), "normsq()"),
    "quadrature": {**dict.fromkeys(("radial_nodes", "t_nodes"), "40"),
                   "sphere_pow": "8"},
    "params": {"r": "0.5", "radii": "0.5, 1.0", "eps": "0.1", "center": "0, 0, 0, 0",
               "inner_radius": "0.5", "outer_radius": "1.0", "trials": "1"},
    "tolerances": dict.fromkeys(("identity", "moore", "mass", "jensen",
                                 "jensen_layered", "boundary", "positivity",
                                 "monotonicity", "cln"), "0.001"),
}


@pytest.mark.parametrize("command", list(_READ_KEYS))
def test_parse_config_accepts_only_the_keys_the_command_reads(command):
    for section, values in _KEY_VALUES.items():
        read = _READ_KEYS[command].get(section, ())
        for key, value in values.items():
            text = f"[run]\ncommand = {command}\n# {section}\n[{section}]\n{key} = {value}\n"
            if read is None or key in read:
                assert key in getattr(parse_config(text), section)
            else:
                with pytest.raises(ConfigError, match=f"^line 5: command '{command}' "
                                   f"does not read '{key}' in \\[{section}\\]$"):
                    parse_config(text)


_UNREAD_KEY_CASES = [
    ("verify", "[params]\nr = 1.0"),
    ("ma", "[fields]\nu = normsq()\n\n[quadrature]\nsphere_pow = 8"),
    ("fundamental", "[fields]\nu = normsq()"),
    ("lelong", "[fields]\nu = normsq()\n\n[params]\nr = 1.0"),
    ("jensen", "[fields]\nphi = normsq()\nv = x0\n\n[params]\nr = 1.0\n\n"
               "[tolerances]\nboundary = 0.001"),
    ("boundary", "[fields]\nphi = normsq()\n\n[params]\nr = 1.0\n\n"
                 "[tolerances]\njensen = 1e-30"),
    ("cln", "[fields]\nu = normsq()\n\n[quadrature]\nt_nodes = 1"),
]


@pytest.mark.parametrize("command, body", _UNREAD_KEY_CASES,
                         ids=[command for command, _ in _UNREAD_KEY_CASES])
def test_exit_1_on_a_key_the_command_does_not_read(tmp_path, capsys, command, body):
    # each body sets, on its last line, a key only another command reads;
    # that key used to be ignored and the run passed
    text = f"[run]\ncommand = {command}\nn = 1\n\n{body}\n"
    key = body.rsplit("\n", 1)[1].split(" =")[0]
    cfg = _write(tmp_path, f"{command}.ini", text)
    assert _run(command, cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert f"line {text.count(chr(10))}: command '{command}' does not read '{key}'" in err
    assert not (tmp_path / "out").exists()


def test_level_r_may_be_negative(tmp_path):
    # boundary and jensen read r as a level of phi: here the sphere |q| = 1/2
    cfg = _write(tmp_path, "level.ini", """\
        [run]
        command = boundary
        n = 1

        [fields]
        phi = normsq() - 1

        [params]
        r = -0.75
        """)
    assert _run("boundary", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "boundary.json").read_text())
    by_name = {row["quantity"]: row for row in report["rows"]}
    assert by_name["boundary_mass"]["value"] == pytest.approx(4 * PI2 / 16, rel=1e-9)


# ---------------------------------------------------------------------------
# field expressions


def test_expr_polynomial_terms_are_exact():
    u = parse_field_expr("x0^2 - 1/4*x1 + 3", 1)
    assert u.terms == {
        (2, 0, 0, 0): Fraction(1),
        (0, 1, 0, 0): Fraction(-1, 4),
        (0, 0, 0, 0): Fraction(3),
    }


def test_expr_precedence_and_grouping():
    assert parse_field_expr("1 + 2 * 3", 1).terms == {(0, 0, 0, 0): Fraction(7)}
    assert parse_field_expr("(1 + 2) * 3", 1).terms == {(0, 0, 0, 0): Fraction(9)}
    u = parse_field_expr("2*x0^2", 1)
    assert u.terms == {(2, 0, 0, 0): Fraction(2)}
    v = parse_field_expr("(x0 + x1)^2", 1)
    assert v.terms == {(2, 0, 0, 0): Fraction(1), (1, 1, 0, 0): Fraction(2),
                       (0, 2, 0, 0): Fraction(1)}
    w = parse_field_expr("-x0 - -x1", 1)
    assert w.terms == {(1, 0, 0, 0): Fraction(-1), (0, 1, 0, 0): Fraction(1)}


def test_expr_unary_minus_binds_looser_than_power():
    # as in mathematics and Python: -x0^2 is -(x0^2), not (-x0)^2
    assert parse_field_expr("-x0^2", 1).terms == {(2, 0, 0, 0): -1}
    assert parse_field_expr("-2^2", 1).terms == {(0, 0, 0, 0): Fraction(-4)}
    assert parse_field_expr("(-x0)^2", 1).terms == {(2, 0, 0, 0): 1}
    assert parse_field_expr("2 * -x0^3", 1).terms == {(3, 0, 0, 0): -2}
    assert parse_field_expr("--x0^2", 1).terms == {(2, 0, 0, 0): 1}


def test_expr_decimal_literals_are_floats():
    u = parse_field_expr("0.5*x0", 1)
    assert u.terms == {(1, 0, 0, 0): 0.5}
    assert type(u.terms[(1, 0, 0, 0)]) is float


@pytest.mark.parametrize("n", [1, 2])
def test_expr_builtin_normsq(n):
    u = parse_field_expr("normsq()", n)
    assert u.terms == normsq(n).terms


def test_expr_builtin_invshift():
    u = parse_field_expr("invshift(0.5)", 1)
    assert isinstance(u, InvShift)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert u.value(x) == pytest.approx(-1.0 / 1.5, rel=1e-15)


def test_expr_builtin_quadform():
    u = parse_field_expr("quadform([2, (0,1,0,0); (0,-1,0,0), 3])", 2)
    a = QMatrix([[Quaternion(2), Quaternion(0, 1, 0, 0)],
                 [Quaternion(0, -1, 0, 0), Quaternion(3)]])
    assert u.terms == quadform(a).terms
    v = parse_field_expr("quadform([3/2])", 1)
    assert v.terms == quadform(QMatrix([[Quaternion(Fraction(3, 2))]])).terms


def test_expr_composite_field_evaluates():
    u = parse_field_expr("normsq() + invshift(1.0)", 1)
    x = np.array([1.0, 1.0, 0.0, 0.0])
    assert u.value(x) == pytest.approx(2.0 - 1.0 / 3.0, rel=1e-14)


@pytest.mark.parametrize("src,match", [
    ("", "unexpected end of expression"),
    ("x0 +", "unexpected end"),
    ("x0 / 2", "only allowed inside rational literals"),
    ("x4", "out of range"),
    ("x0^17", "exponent too large"),
    ("x0^-1", "expected an integer"),
    ("blob(1)", "unknown name"),
    ("(x0 + x1", "expected '\\)'"),
    ("x0 x1", "unexpected trailing text"),
    ("1/0", "zero denominator"),
    ("quadform([1, 0; 2])", "ragged matrix rows"),
    ("quadform([(0,1,0,0)])", "column"),
    ("invshift(1)?", "trailing"),
])
def test_expr_errors_carry_column(src, match):
    with pytest.raises(ConfigError, match=match):
        parse_field_expr(src, 1)


def test_expr_variable_range_scales_with_n():
    u = parse_field_expr("x7", 2)
    assert u.terms == {(0, 0, 0, 0, 0, 0, 0, 1): Fraction(1)}
    with pytest.raises(ConfigError, match="out of range"):
        parse_field_expr("x8", 2)


# ---------------------------------------------------------------------------
# end-to-end command runs


def _write(tmp_path, name, body):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body))
    return p


def _run(cmd, cfg_path, out_dir, *extra):
    return main([cmd, "--config", str(cfg_path), "--out", str(out_dir), *extra])


def test_cmd_verify(tmp_path, capsys):
    cfg = _write(tmp_path, "verify.ini", """\
        [run]
        command = verify
        n = 1
        seed = 7
        """)
    code = _run("verify", cfg, tmp_path / "out")
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[-1] == "status: ok"

    csv_text = (tmp_path / "out" / "verify.csv").read_text()
    rows = csv_text.splitlines()
    assert rows[0] == "check,n,value,bound,status"
    assert len(rows) == 13  # header + 12 checks
    assert all(r.endswith(",pass") for r in rows[1:])

    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["schema_version"] == 2
    assert report["passed"] is True
    assert report["seed"] == 7
    assert report["summary"] == {"checks": 12}
    names = [row["check"] for row in report["rows"]]
    assert "embedding-multiplicative-quaternion" in names
    assert "moore-matching-equivalence" in names


@pytest.mark.parametrize("seed", range(5))
def test_verify_quaternion_check_is_the_scalar_loop(seed):
    # the batched check reports the bits of 200 scalar tau() checks and
    # leaves the stream where they left it
    rng = np.random.default_rng(seed)
    dev = 0.0
    for _ in range(200):
        p, q = random_quaternion(rng), random_quaternion(rng)
        dev = max(dev, float(np.abs(tau(p * q) - tau(p) @ tau(q)).max()))
    matrix_dev = 0.0
    for _ in range(20):
        a, b = random_qmatrix(rng, 1), random_qmatrix(rng, 1)
        matrix_dev = max(matrix_dev, float(np.abs((a @ b).tau() - a.tau() @ b.tau()).max()))
    report = run_command(parse_config(f"[run]\ncommand = verify\nn = 1\nseed = {seed}\n"))
    values = {row["check"]: row["value"] for row in report["rows"]}
    assert values["embedding-multiplicative-quaternion"] == dev > 0.0
    assert values["embedding-multiplicative-matrix"] == matrix_dev


def test_cmd_ma(tmp_path):
    cfg = _write(tmp_path, "ma.ini", """\
        [run]
        command = ma
        n = 1

        [fields]
        u = normsq()
        """)
    assert _run("ma", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "ma.json").read_text())
    (row,) = report["rows"]
    assert row["field"] == "u"
    assert row["min_density"] == pytest.approx(8.0, rel=1e-12)
    assert row["max_density"] == pytest.approx(8.0, rel=1e-12)
    assert report["summary"]["psh"] == {"u": True}


def test_cmd_fundamental(tmp_path):
    cfg = _write(tmp_path, "fund.ini", """\
        [run]
        command = fundamental
        n = 1

        [params]
        r = 1.0
        eps = 0.1, 0.01
        """)
    assert _run("fundamental", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "fundamental.json").read_text())
    assert report["summary"]["limit"] == pytest.approx(4 * PI2, rel=1e-14)
    for row in report["rows"]:
        assert row["status"] == "pass"
        assert row["rel_err"] <= 1e-6
        assert row["mass_quadrature"] < report["summary"]["limit"]


def test_cmd_lelong(tmp_path):
    cfg = _write(tmp_path, "lelong.ini", """\
        [run]
        command = lelong
        n = 1

        [fields]
        u = normsq()

        [params]
        radii = 0.25, 0.5, 1.0
        """)
    assert _run("lelong", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "lelong.json").read_text())
    assert [row["radius"] for row in report["rows"]] == [0.25, 0.5, 1.0]
    assert all(row["status"] == "pass" for row in report["rows"])
    assert report["summary"]["monotone_violations"] == []
    assert math.isfinite(report["summary"]["nu"])


@pytest.mark.parametrize("center, rule", [("", "radial"),
                                          ("center = 0.5, 0, 0, 0, 0, 0, 0, 0", "ball")],
                         ids=["pole", "off-pole"])
def test_lelong_summary_names_its_rule(tmp_path, center, rule):
    # about its own pole invshift's profile is integrated on one ray, where
    # sphere_pow and seed play no part; off the pole it takes the ball rule
    cfg = _write(tmp_path, "lelong.ini", f"""\
        [run]
        command = lelong
        n = 2

        [fields]
        u = invshift(0.001)

        [params]
        radii = 0.125, 0.25, 0.5, 1.0
        {center}
        """)
    assert _run("lelong", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "lelong.json").read_text())
    assert report["summary"]["rule"] == rule
    errors = [row["error"] for row in report["rows"]]
    assert (errors == [0.0] * 4) if rule == "radial" else any(errors)


def test_cmd_jensen(tmp_path):
    cfg = _write(tmp_path, "jensen.ini", """\
        [run]
        command = jensen
        n = 1

        [fields]
        phi = normsq()
        v = normsq()

        [params]
        r = 1.0

        [quadrature]
        t_nodes = 24
        """)
    assert _run("jensen", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "jensen.json").read_text())
    by_name = {row["quantity"]: row for row in report["rows"]}
    assert by_name["lhs"]["value"] == pytest.approx(4 * PI2 / 3, rel=1e-8)
    assert by_name["residual_spatial"]["status"] == "pass"
    assert by_name["residual_layered"]["status"] == "pass"
    assert set(report["summary"]["errors"]) == {
        "boundary", "interior", "spatial", "layered"}


def _run_jensen(tmp_path, n, seed, phi, r):
    """(exit status, CSV bytes) of ``qma jensen`` on phi with v = x0^2 + 3/2."""
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    cfg = _write(tmp_path, "jensen.ini", f"""\
        [run]
        command = jensen
        n = {n}
        seed = {seed}

        [fields]
        phi = {phi}
        v = x0^2 + 3/2

        [params]
        r = {r}
        """)
    return _run("jensen", cfg, out), (out / "jensen.csv").read_bytes()


def test_jensen_reads_the_ball_of_any_quadratic_spelling(tmp_path):
    # normsq() + 1 at level 2 is the unit ball of normsq() at level 1: the
    # same sphere and ball rules give the same rows, bit for bit
    plain = _run_jensen(tmp_path / "plain", 2, 4, "normsq()", 1.0)
    shifted = _run_jensen(tmp_path / "shifted", 2, 4, "normsq() + 1", 2.0)
    assert shifted == plain and plain[0] == 0
    assert _run_jensen(tmp_path / "scaled", 2, 4, "2*normsq()", 2.0)[0] == 0


def test_jensen_layers_an_off_center_quadratic_from_its_minimum(tmp_path):
    # |q|^2 + 2 x0 = |q + e0|^2 - 1 has its minimum -1 at -e0, below phi(0)
    status, csv = _run_jensen(tmp_path, 1, 0, "normsq() + 2*x0", 1.0)
    assert status == 0
    rows = {line.split(",")[0]: line.split(",") for line in csv.decode().splitlines()}
    assert rows["residual_layered"][3] == "pass"
    assert float(rows["residual_layered"][1]) < 0.1


def test_cmd_boundary(tmp_path):
    cfg = _write(tmp_path, "boundary.ini", """\
        [run]
        command = boundary
        n = 1

        [fields]
        phi = normsq()

        [params]
        r = 1.0
        """)
    assert _run("boundary", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "boundary.json").read_text())
    by_name = {row["quantity"]: row for row in report["rows"]}
    assert by_name["boundary_mass"]["value"] == pytest.approx(4 * PI2, rel=1e-9)
    assert by_name["mass_residual"]["status"] == "pass"
    assert by_name["density_negativity"]["value"] == 0.0


_TILTED = "quadform([2, (0,1,0,0); (0,-1,0,0), 3])"


def _run_boundary(tmp_path, n, seed, phi, r):
    """(exit status, rows by quantity) of ``qma boundary`` on phi."""
    tmp_path.mkdir(exist_ok=True)
    cfg = _write(tmp_path, "boundary.ini", f"""\
        [run]
        command = boundary
        n = {n}
        seed = {seed}

        [fields]
        phi = {phi}

        [params]
        r = {r}
        """)
    status = _run("boundary", cfg, tmp_path / "out")
    report = json.loads((tmp_path / "out" / "boundary.json").read_text())
    return status, {row["quantity"]: row for row in report["rows"]}


def test_jensen_and_boundary_pass_on_the_tilted_form(tmp_path):
    # the ellipsoidal sublevel sets take the ball rule through phi's own map
    for seed in range(10):
        assert _run_jensen(tmp_path / f"jensen{seed}", 2, seed, _TILTED, 1.0)[0] == 0
        status, rows = _run_boundary(tmp_path / f"boundary{seed}", 2, seed, _TILTED, 1.0)
        assert status == 0 and rows["mass_residual"]["value"] < 1e-10


def test_boundary_takes_an_off_center_quadratic_from_its_center(tmp_path):
    # |q|^2 + x0^2 + 8 x0 has its minimum -8 at -2 e0: at r = -6 the level
    # set does not surround 0, and the density floor's rays start at -2 e0
    status, rows = _run_boundary(tmp_path / "below", 1, 0, "normsq() + x0^2 + 8*x0", -6.0)
    assert status == 0 and rows["density_negativity"]["value"] == 0.0
    for seed in range(10):
        status, _ = _run_boundary(tmp_path / f"seed{seed}", 1, seed,
                                  "normsq() + x0^2 + 8*x0", 1.0)
        assert status == 0


def test_boundary_takes_a_tilted_quartic_from_its_minimum(tmp_path):
    # |q|^2 + x0^4 + 4 x0 has its minimum -2.157 at x0 = -0.835: the level
    # set at r = -1 does not surround 0, and every ray starts at the minimum
    tmp_path.mkdir(exist_ok=True)
    cfg = _write(tmp_path, "boundary.ini", """\
        [run]
        command = boundary
        n = 1
        seed = 0

        [fields]
        phi = normsq() + x0^4 + 4*x0

        [params]
        r = -1.0

        [quadrature]
        sphere_pow = 11
        """)
    assert _run("boundary", cfg, tmp_path / "out") == 0


@pytest.mark.parametrize("command", ["jensen", "boundary"])
def test_exit_1_on_a_quadratic_that_is_not_an_exhaustion(tmp_path, capsys, command):
    # the sublevel sets of x0^2 on H^2 are unbounded slabs
    cfg = _write(tmp_path, f"{command}.ini", f"""\
        [run]
        command = {command}
        n = 2

        [fields]
        phi = x0^2
        {"v = x0^2 + 3/2" if command == "jensen" else ""}

        [params]
        r = 1.0
        """)
    assert _run(command, cfg, tmp_path / "out") == 1
    assert "not an exhaustion" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_cln(tmp_path):
    cfg = _write(tmp_path, "cln.ini", """\
        [run]
        command = cln
        n = 1

        [fields]
        u = normsq()

        [params]
        trials = 2
        """)
    assert _run("cln", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "cln.json").read_text())
    assert len(report["rows"]) == 3  # configured + 2 trials
    assert report["rows"][0]["case"] == "configured"
    assert report["rows"][0]["ratio"] == pytest.approx(PI2 / 4, rel=1e-8)
    assert all(math.isfinite(row["ratio"]) for row in report["rows"])
    assert all(row["status"] == "pass" for row in report["rows"])


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_tolerance_failure(tmp_path, capsys):
    # |q|^2 on the default radii 1/2 < 1 has cln ratio pi^2/4 ~ 2.47
    # (pinned in test_cmd_cln), so a bound of 1 fails on any platform
    cfg = _write(tmp_path, "tight.ini", """\
        [run]
        command = cln
        n = 1

        [fields]
        u = normsq()

        [tolerances]
        cln = 1
        """)
    code = _run("cln", cfg, tmp_path / "out")
    assert code == 2
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "status: tolerance failure"
    # outputs are still written on tolerance failure
    report = json.loads((tmp_path / "out" / "cln.json").read_text())
    assert report["passed"] is False
    assert report["rows"][0]["case"] == "configured"
    assert report["rows"][0]["status"] == "fail"


def test_exit_1_on_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.ini", """\
        [run]
        command = verify
        bogus = 1
        """)
    assert _run("verify", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("qma: error:")
    assert "line 3" in err
    assert not (tmp_path / "out").exists()


def _nan_ray_config(tmp_path):
    # x0^32 - x1^32 stays below the level on rays with |x1| > |x0| until both
    # terms overflow, and inf - inf is NaN: no root may come out of that
    return _write(tmp_path, "nan.ini", """\
        [run]
        command = boundary
        n = 1

        [fields]
        phi = x0^16*x0^16 - x1^16*x1^16

        [params]
        r = 1.0
        """)


def test_exit_1_on_nan_on_a_sample_ray(tmp_path, capsys):
    assert _run("boundary", _nan_ray_config(tmp_path), tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("qma: error: sample ray ")
    assert "NaN" in err
    assert not (tmp_path / "out").exists()


def test_nan_on_a_sample_ray_emits_no_runtime_warning(tmp_path, capsys):
    # the overflow on the way to the NaN is expected; the NaN is the error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run("boundary", _nan_ray_config(tmp_path), tmp_path / "out") == 1
    assert "NaN" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_exit_1_on_a_non_finite_jensen_term_names_its_row(tmp_path, capsys, monkeypatch):
    real = cli.lelong_jensen

    def nan_boundary(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), boundary_term=math.nan)

    monkeypatch.setattr(cli, "lelong_jensen", nan_boundary)
    cfg = _write(tmp_path, "jensen.ini", """\
        [run]
        command = jensen
        n = 1

        [fields]
        phi = normsq()
        v = normsq()

        [quadrature]
        sphere_pow = 4
        radial_nodes = 4
        t_nodes = 4

        [params]
        r = 1.0
        """)
    assert _run("jensen", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "row 0 (boundary_term) column 'value' is not finite (nan)" in err
    assert not (tmp_path / "out").exists()


def test_exit_1_on_missing_config(tmp_path, capsys):
    assert _run("verify", tmp_path / "nope.ini", tmp_path / "out") == 1
    assert "cannot read config" in capsys.readouterr().err


def test_exit_1_on_command_mismatch(tmp_path, capsys):
    cfg = _write(tmp_path, "v.ini", "[run]\ncommand = verify\n")
    assert _run("ma", cfg, tmp_path / "out") == 1
    assert "config is for 'verify'" in capsys.readouterr().err


def test_exit_1_on_cln_pole(tmp_path, capsys):
    # -1/|q|^2 is infinite at the center, which the sup-norm sample contains
    cfg = _write(tmp_path, "pole.ini", """\
        [run]
        command = cln
        n = 1

        [fields]
        u = invshift(0)
        """)
    assert _run("cln", cfg, tmp_path / "out") == 1
    assert "not finite on the outer ball" in capsys.readouterr().err
    assert not (tmp_path / "out" / "cln.json").exists()


@pytest.mark.parametrize("command, fields, params", [
    ("fundamental", "", "r = -1.0\neps = 0.1"),
    ("cln", "u = normsq()", "inner_radius = -0.5"),
], ids=["fundamental", "cln"])
def test_exit_1_on_negative_ball_radius(tmp_path, capsys, command, fields, params):
    # the ball rules square the radius, so a negative one would measure the
    # ball of radius |r| and pass
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(f"[run]\ncommand = {command}\nn = 1\n\n[fields]\n{fields}\n"
                   f"\n[params]\n{params}\n")
    assert _run(command, cfg, tmp_path / "out") == 1
    assert "ball radius must be positive, got -" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, fields, params, message", [
    ("lelong", "u = normsq()", "center = 0, 0", "line 9: center needs 4 components, got 2"),
    ("lelong", "u = normsq()", "radii = 0.5",
     "line 9: radii needs at least two distinct values, got 1"),
    ("lelong", "u = normsq()", "radii = 0.5, 0.5",
     "line 9: radii needs at least two distinct values, got 1"),
    ("lelong", "u = normsq()", "radii = 0.5, -1.0", "line 9: radii must be positive, got -1.0"),
    ("fundamental", "", "eps = 0.1, -0.1",
     "line 9: fundamental needs strictly positive eps values, got -0.1"),
    ("cln", "u = normsq()", "inner_radius = 2.0",
     "line 9: inner_radius 2.0 must not exceed outer_radius 1.0"),
    # used to fail in the ball rule with "ball radius must be positive, got
    # 0.0", naming no line
    ("cln", "u = normsq()", "inner_radius = 0",
     "line 9: inner ball radius must be positive, got 0.0"),
], ids=["lelong-center", "lelong-one-radius", "lelong-repeated-radius",
        "lelong-radius-sign", "fundamental-eps", "cln-radii", "cln-inner-radius"])
def test_exit_1_on_param_value_names_its_line(tmp_path, capsys, command, fields, params,
                                              message):
    # checked while parsing, before any field is parsed or evaluated
    cfg = tmp_path / f"{command}.ini"
    cfg.write_text(f"[run]\ncommand = {command}\nn = 1\n\n[fields]\n{fields}\n"
                   f"\n[params]\n{params}\n")
    assert _run(command, cfg, tmp_path / "out") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_1_on_field_dimension_mismatch(tmp_path, capsys):
    for command, name, fields in (("ma", "u", "u = quadform([1, 0; 0, 1])"),
                                  ("jensen", "phi", "phi = quadform([1, 0; 0, 1])\nv = x0"),
                                  ("cln", "w", "u = x0^2\nw = quadform([1, 0; 0, 1])")):
        cfg = tmp_path / f"{command}.ini"
        params = "" if command == "cln" else "\n[params]\nr = 1.0\n"
        cfg.write_text(f"[run]\ncommand = {command}\nn = 1\n\n[fields]\n{fields}\n"
                       + params)
        assert _run(command, cfg, tmp_path / "out") == 1
        assert f"field '{name}' lives on H^2, run has n = 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_exit_1_on_more_cln_fields_than_n(tmp_path, capsys):
    cfg = _write(tmp_path, "cln.ini", """\
        [run]
        command = cln
        n = 1

        [fields]
        u = x0^2
        w = normsq()
        """)
    assert _run("cln", cfg, tmp_path / "out") == 1
    assert "cln takes at most n = 1 fields, got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_exit_1_on_non_finite_value(tmp_path, capsys):
    # x0^16 overflows at radius 1e30: the densities are NaN, and a plain max
    # over the Moore residuals would drop the NaN and let the row pass
    cfg = _write(tmp_path, "overflow.ini", """\
        [run]
        command = ma
        n = 1

        [fields]
        u = x0^16

        [params]
        r = 1e30
        """)
    with np.errstate(all="ignore"):
        assert _run("ma", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "row 0 (u) column 'min_density' is not finite (nan)" in err
    assert not (tmp_path / "out").exists()
    # the JSON writer never emits a bare NaN either
    with pytest.raises(ValueError):
        _render_json({"rows": [{"value": math.nan}]})


@pytest.mark.parametrize("center, refused", [("0, 0, 0, 0", True), ("1, 0, 0, 0", True),
                                             ("3, 0, 0, 0", False)])
def test_exit_1_on_lelong_point_mass(tmp_path, capsys, center, refused):
    # on H^1, laplace(-1/|q|^2) is a point mass at the origin that no
    # quadrature node sees; it is refused when the largest ball holds it
    cfg = _write(tmp_path, "mass.ini", f"""\
        [run]
        command = lelong
        n = 1

        [fields]
        u = invshift(0)

        [params]
        radii = 0.25, 0.5, 1.0
        center = {center}
        """)
    code = _run("lelong", cfg, tmp_path / "out")
    if refused:
        assert code == 1
        assert "not finite at the origin" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    else:
        assert code != 1
        assert (tmp_path / "out" / "lelong.json").exists()


def test_lelong_zero_measure_passes_despite_rounding_noise(tmp_path):
    # with the pole of u outside every ball, laplace(u) vanishes there and
    # the normalized masses are rounding noise around 0 (about 1e-18); a
    # purely relative allowance failed the rows on it
    cfg = _write(tmp_path, "noise.ini", """\
        [run]
        command = lelong
        n = 1

        [fields]
        u = invshift(0)

        [params]
        radii = 0.25, 0.5, 1.0
        center = 3, 0, 0, 0
        """)
    assert _run("lelong", cfg, tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "lelong.json").read_text())
    assert report["summary"]["monotone_violations"] == []
    assert [row["status"] for row in report["rows"]] == ["pass"] * 3
    assert max(abs(row["normalized_mass"]) for row in report["rows"]) < 1e-15


# ---------------------------------------------------------------------------
# determinism and run options


def test_identical_configs_are_byte_identical(tmp_path):
    body = """\
        [run]
        command = ma
        n = 1
        seed = 11

        [fields]
        u = normsq()
        v = x0^2 + x1^2
        """
    cfg_a = _write(tmp_path, "a.ini", body)
    cfg_b = _write(tmp_path, "b.ini", body)
    assert _run("ma", cfg_a, tmp_path / "out_a") == 0
    assert _run("ma", cfg_b, tmp_path / "out_b") == 0
    for name in ("ma.csv", "ma.json"):
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b


def test_verify_runs_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "v.ini", "[run]\ncommand = verify\nn = 1\nseed = 3\n")
    assert _run("verify", cfg, tmp_path / "one") == 0
    assert _run("verify", cfg, tmp_path / "two") == 0
    assert ((tmp_path / "one" / "verify.csv").read_bytes()
            == (tmp_path / "two" / "verify.csv").read_bytes())
    assert ((tmp_path / "one" / "verify.json").read_bytes()
            == (tmp_path / "two" / "verify.json").read_bytes())


def test_seed_override_flag(tmp_path):
    cfg = _write(tmp_path, "ma.ini", """\
        [run]
        command = ma
        n = 1
        seed = 0

        [fields]
        u = x0^2
        """)
    assert _run("ma", cfg, tmp_path / "out", "--seed", "123") == 0
    report = json.loads((tmp_path / "out" / "ma.json").read_text())
    assert report["seed"] == 123


def test_module_entry_point(tmp_path):
    cfg = _write(tmp_path, "b.ini", """\
        [run]
        command = boundary
        n = 1

        [fields]
        phi = normsq()

        [params]
        r = 0.25

        [output]
        format = json
        """)
    # the child imports the qma this test imported
    proc = subprocess.run(
        [sys.executable, "-m", "qma.cli", "boundary",
         "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("status: ok")
    assert (tmp_path / "out" / "boundary.json").exists()
    assert not (tmp_path / "out" / "boundary.csv").exists()
