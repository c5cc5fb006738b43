"""Config-driven command line front end.

Usage::

    qma <command> --config <path> [--out <dir>] [--seed <u64>]

Commands, and the keys each reads besides [run] and [output]
----------------------------------------------------------------
verify       algebraic identity suite (embedding, duality, closedness, ...)
             [tolerances] identity, moore, positivity
ma           density/positivity report for the configured potentials
             [fields] any names, at least one; [params] r; [tolerances] moore
fundamental  regularized fundamental-solution masses vs. closed forms
             [quadrature] radial_nodes; [params] r, eps; [tolerances] mass
lelong       normalized-mass radius profile and density at a point
             [fields] u; [quadrature] sphere_pow, radial_nodes;
             [params] radii, center; [tolerances] monotonicity
jensen       boundary/interior balance for an exhaustion and a potential
             [fields] phi, v; [quadrature] t_nodes, sphere_pow, radial_nodes;
             [params] r (required); [tolerances] jensen, jensen_layered
boundary     boundary-measure mass identity and density floor
             [fields] phi; [quadrature] sphere_pow, radial_nodes;
             [params] r (required); [tolerances] boundary, positivity
cln          mass-over-sup-norm ratios on nested balls
             [fields] any names, at least one; [quadrature] sphere_pow,
             radial_nodes; [params] inner_radius, outer_radius, trials;
             [tolerances] cln

Each run reads one config file, evaluates every tolerance it declares, and
writes ``<command>.csv`` / ``<command>.json`` into the output directory
(atomically; identical configs produce byte-identical files).  Exit status:
0 when every evaluated tolerance holds, 2 when at least one fails, 1 on a
config or runtime error.

Config format
-------------
An INI-like text format with ``#`` comments and six known sections:
``[run]`` (command, n, seed), ``[output]`` (dir, format: csv | json | both),
``[fields]`` (<name> = <field expression>), ``[quadrature]``, ``[params]``
and ``[tolerances]``.  Unknown sections or keys, keys the command does not
read, negative tolerances, ``[quadrature]`` counts below 1 (below 32 for
``fundamental``'s ``radial_nodes``, below 2 for ``jensen``'s
``sphere_pow``), a ``sphere_pow`` above 29 for ``jensen`` and ``boundary``
(their surface rule runs at ``sphere_pow + 1``) or above 30 for ``lelong``
and ``cln`` (no rule draws more than 2^30 directions), a negative
``trials``, for ``ma`` and ``fundamental`` a ball radius ``r <= 0``, a
``lelong`` ``center`` without 4n components, ``lelong`` ``radii`` with fewer
than two distinct values or a value ``<= 0``, a ``fundamental`` ``eps <= 0``,
a ``cln`` ``inner_radius <= 0`` and a ``cln`` ``inner_radius`` above its
``outer_radius`` are rejected with the offending line number (``jensen``
and ``boundary`` read ``r`` as a level, which may be negative).  Unset
``[quadrature]`` keys take the library's defaults.

Field expressions
-----------------
A small exact grammar over the coordinates ``x0 .. x{4n-1}``::

    expr    :=  term (('+' | '-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  '-' factor | atom ('^' INT)?
    atom    :=  NUMBER | RATIONAL | VAR | CALL | '(' expr ')'
    CALL    :=  normsq() | invshift(NUMBER) | quadform(MATRIX)
    MATRIX  :=  '[' row (';' row)* ']'         rows of scalar or
    entry   :=  RATIONAL | '(' a, b, c, d ')'  4-component entries

Integer and rational literals (``3``, ``3/2``) stay exact; decimal literals
are floats.  ``quadform`` entries must form a matrix equal to its conjugate
transpose.  ``/`` is only valid inside rational literals.
"""

import argparse
import dataclasses
import itertools
import json
import math
import os
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

from .calculus import closedness_residual, delta_matrix, laplace, nabla, z_field
from .currents import RegularizedCurrent, cln_ratio, lelong_number
from .errors import ConfigError, NumericalInconsistencyError, QmaError
from .exterior import beta, positivity_test, random_strongly_positive, top_coefficient
from .fields import Polynomial, ScalarField, invshift, normsq, quadform
from .hamilton import (QMatrix, Quaternion, _tau_blocks, jmatrix, moore_det,
                       random_hyperhermitian, random_qmatrix)
from .monge_ampere import (fundamental_ma_density, fundamental_mass_exact, ma_density, mixed_ma,
                           fundamental_mass_limit_coefficient, moore_equivalence_residual, psh_test)
from .potential import boundary_mass_residual, boundary_measure_density, lelong_jensen
from .quadrature import _SOBOL_BITS, StarShapedRule, ball_points, radial_ball_integral

SCHEMA_VERSION = 2

_REQUIRED = object()  # a [params] value a command cannot run without

# typed key tables; every config key must appear here (or be a field name)
_RUN_KEYS = {"command": "str", "n": "int", "seed": "int"}
_QUAD_KEYS = {"sphere_pow": "int", "radial_nodes": "int", "t_nodes": "int"}
_PARAM_KEYS = {"r": "float", "radii": "floats", "eps": "floats", "center": "floats",
               "inner_radius": "float", "outer_radius": "float", "trials": "int"}
_TOL_KEYS = {"identity": "float", "moore": "float", "mass": "float",
             "jensen": "float", "jensen_layered": "float", "boundary": "float",
             "positivity": "float", "monotonicity": "float", "cln": "float"}
_OUT_KEYS = {"dir": "str", "format": "str"}

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_INT_RE = re.compile(r"[+-]?\d+\Z")
_RESERVED_FIELD_NAMES = {"normsq", "invshift", "quadform"}
_VAR_NAME_RE = re.compile(r"x\d+\Z")


@dataclasses.dataclass
class RunConfig:
    """Parsed run configuration; dictionaries hold only typed values."""

    command: str
    n: int = 1
    seed: int = 0
    fields: dict = dataclasses.field(default_factory=dict)
    quadrature: dict = dataclasses.field(default_factory=dict)
    params: dict = dataclasses.field(default_factory=dict)
    tolerances: dict = dataclasses.field(default_factory=dict)
    output_dir: str = "."
    output_format: str = "both"


# ---------------------------------------------------------------------------
# config parsing


def _convert(kind, text, where):
    if kind == "str":
        return text
    if kind == "int":
        if not _INT_RE.match(text):
            raise ConfigError(f"{where}: expected an integer, got {text!r}")
        return int(text)
    if kind == "float":
        try:
            v = float(Fraction(text)) if "/" in text else float(text)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{where}: expected a number, got {text!r}")
        if not math.isfinite(v):
            raise ConfigError(f"{where}: value must be finite")
        return v
    if kind == "floats":
        parts = [p.strip() for p in text.split(",")]
        if not all(parts):
            raise ConfigError(f"{where}: expected a comma-separated list of numbers")
        return [_convert("float", p, where) for p in parts]
    raise AssertionError(kind)


def parse_config(text):
    """Parse config text into a RunConfig; raise ConfigError with the line."""
    raw = {name: {} for name in ("run", "fields", "quadrature", "params",
                                 "tolerances", "output")}
    current = None
    seen_sections = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            m = re.match(r"\[([a-z_]+)\]\Z", line)
            if not m:
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = m.group(1)
            if name not in raw:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in seen_sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            seen_sections.add(name)
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _IDENT_RE.match(key):
            raise ConfigError(f"line {lineno}: invalid key {key!r}")
        if key in raw[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[current][key] = (lineno, value)

    for section, table in (("run", _RUN_KEYS), ("quadrature", _QUAD_KEYS),
                           ("params", _PARAM_KEYS), ("tolerances", _TOL_KEYS),
                           ("output", _OUT_KEYS)):
        for key, (lineno, _) in raw[section].items():
            if key not in table:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
    for key, (lineno, _) in raw["fields"].items():
        if key in _RESERVED_FIELD_NAMES or _VAR_NAME_RE.match(key):
            raise ConfigError(f"line {lineno}: field name {key!r} is reserved")

    def typed(section, table):
        return {k: _convert(table[k], v, f"line {ln}")
                for k, (ln, v) in raw[section].items()}

    run = typed("run", _RUN_KEYS)
    if "command" not in run:
        raise ConfigError("missing required key 'command' in [run]")
    if run["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {run['command']!r} "
                          f"(expected one of: {', '.join(COMMANDS)})")
    out = typed("output", _OUT_KEYS)
    fmt = out.get("format", "both")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError(f"output format must be csv, json or both, got {fmt!r}")
    seed = run.get("seed", 0)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must fit in an unsigned 64-bit integer")
    tolerances = typed("tolerances", _TOL_KEYS)
    for key, value in tolerances.items():
        if value < 0:
            raise ConfigError(f"line {raw['tolerances'][key][0]}: tolerance {key!r} "
                              f"must not be negative")
    reads = _COMMANDS[run["command"]]
    quadrature = typed("quadrature", _QUAD_KEYS)
    for key, value in quadrature.items():
        least = reads.quadrature.get(key) or 1
        if value < least:
            raise ConfigError(f"line {raw['quadrature'][key][0]}: {key!r} must be "
                              f"at least {least}")
    params = typed("params", _PARAM_KEYS)
    if params.get("trials", 0) < 0:
        raise ConfigError(f"line {raw['params']['trials'][0]}: 'trials' must not be "
                          f"negative")
    _check_values(run["command"], run.get("n", 1), params, quadrature,
                  {k: ln for s in ("params", "quadrature") for k, (ln, _) in raw[s].items()})
    for section in ("fields", "quadrature", "params", "tolerances"):
        known = getattr(reads, section)
        for key, (lineno, _) in raw[section].items():
            if known is not None and key not in known:
                raise ConfigError(f"line {lineno}: command {run['command']!r} does "
                                  f"not read {key!r} in [{section}]")

    return RunConfig(
        command=run["command"],
        n=run.get("n", 1),
        seed=seed,
        fields={k: v for k, (_, v) in raw["fields"].items()},
        quadrature=quadrature,
        params=params,
        tolerances=tolerances,
        output_dir=out.get("dir", "."),
        output_format=fmt,
    )


def _check_values(command, n, params, quadrature, lines):
    """The [params] and [quadrature] checks that need the command: each
    names its line."""
    # jensen's layered term runs at sphere_pow - 1; one direction has no error
    if command == "jensen" and quadrature.get("sphere_pow", 2) < 2:
        raise ConfigError(f"line {lines['sphere_pow']}: jensen needs 'sphere_pow' at "
                          f"least 2, got {quadrature['sphere_pow']}")
    # no rule draws more than 2**_SOBOL_BITS directions, and jensen and
    # boundary run their surface rule at sphere_pow + 1
    if "sphere_pow" in _COMMANDS[command].quadrature:
        high = _SOBOL_BITS - 1 if command in ("jensen", "boundary") else _SOBOL_BITS
        if quadrature.get("sphere_pow", high) > high:
            raise ConfigError(f"line {lines['sphere_pow']}: {command} needs 'sphere_pow' "
                              f"at most {high} (at most 2**{_SOBOL_BITS} directions per "
                              f"rule), got {quadrature['sphere_pow']}")
    # ma and fundamental read r as a ball radius, jensen and boundary as a level
    if command in ("ma", "fundamental") and params.get("r", 1) <= 0:
        raise ConfigError(f"line {lines['r']}: ball radius must be positive, "
                          f"got {params['r']!r}")
    center = params.get("center")
    if command == "lelong" and center and len(center) != 4 * n:
        raise ConfigError(f"line {lines['center']}: center needs {4 * n} components, "
                          f"got {len(center)}")
    radii = params.get("radii")
    if command == "lelong" and radii is not None:
        # one radius gives no pair for the monotonicity status to compare
        if len(set(radii)) < 2:
            raise ConfigError(f"line {lines['radii']}: radii needs at least two "
                              f"distinct values, got {len(set(radii))}")
        for radius in radii:
            if radius <= 0:
                raise ConfigError(f"line {lines['radii']}: radii must be positive, "
                                  f"got {radius!r}")
    if command == "fundamental":
        for eps in params.get("eps", ()):
            if eps <= 0:
                raise ConfigError(f"line {lines['eps']}: fundamental needs strictly "
                                  f"positive eps values, got {eps!r}")
    if command == "cln":
        radii = {**_COMMANDS["cln"].params, **params}
        if radii["inner_radius"] <= 0:
            raise ConfigError(f"line {lines['inner_radius']}: inner ball radius must "
                              f"be positive, got {radii['inner_radius']!r}")
        if radii["inner_radius"] > radii["outer_radius"]:
            key = "inner_radius" if "inner_radius" in params else "outer_radius"
            raise ConfigError(f"line {lines[key]}: inner_radius "
                              f"{radii['inner_radius']!r} must not exceed outer_radius "
                              f"{radii['outer_radius']!r}")


# ---------------------------------------------------------------------------
# field expressions

_NUM_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class _ExprParser:
    """Recursive-descent parser producing exact ScalarFields."""

    def __init__(self, src, n):
        self.src = src
        self.n = n
        self.pos = 0

    def fail(self, msg):
        raise ConfigError(f"column {self.pos + 1}: {msg}")

    def _ws(self):
        while self.pos < len(self.src) and self.src[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self._ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    # ------------------------------------------------------------ grammar
    def parse(self):
        v = self.expr()
        if self.peek():
            self.fail(f"unexpected trailing text {self.src[self.pos:]!r}")
        if not isinstance(v, ScalarField):
            v = Polynomial.constant(self.n, v)
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            t = self.term()
            v = v + t if op == "+" else v - t
        return v

    def term(self):
        v = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                v = v * self.factor()
            elif c == "/":
                self.fail("'/' is only allowed inside rational literals like 3/2")
            else:
                return v

    def factor(self):
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        v = self.atom()
        if self.peek() == "^":
            self.pos += 1
            k = self.integer()
            if k < 0:
                self.fail("exponent must be nonnegative")
            if k > 16:
                self.fail("exponent too large (max 16)")
            v = v ** k
        return v

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            v = self.expr()
            self.expect(")")
            return v
        if c.isdigit():
            return self.number()
        m = _NAME_RE.match(self.src, self.pos)
        if not m:
            self.fail(f"unexpected character {c!r}" if c else "unexpected end of expression")
        name = m.group(0)
        self.pos = m.end()
        if _VAR_NAME_RE.match(name):
            k = int(name[1:])
            if k >= 4 * self.n:
                self.fail(f"variable {name} out of range "
                          f"(n = {self.n} has coordinates x0 .. x{4 * self.n - 1})")
            return Polynomial.coordinate(self.n, k)
        if name == "normsq":
            self.expect("(")
            self.expect(")")
            return normsq(self.n)
        if name == "invshift":
            self.expect("(")
            eps = float(self.number())
            self.expect(")")
            if eps < 0:
                self.fail("invshift needs a nonnegative smoothing parameter")
            return invshift(self.n, eps)
        if name == "quadform":
            self.expect("(")
            rows = self.matrix()
            self.expect(")")
            try:
                return quadform(QMatrix(rows))
            except (ValueError, QmaError) as exc:
                self.fail(str(exc))
        self.fail(f"unknown name {name!r}")

    def number(self):
        self._ws()
        m = _NUM_RE.match(self.src, self.pos)
        if not m:
            self.fail("expected a number")
        text = m.group(0)
        if "." in text or "e" in text or "E" in text:
            v = float(text)
            if not math.isfinite(v):
                self.fail(f"number {text!r} is not finite")
            self.pos = m.end()
            return v
        self.pos = m.end()
        num = int(text)
        # rational literal: integer '/' integer
        save = self.pos
        if self.peek() == "/":
            self.pos += 1
            self._ws()
            m2 = _NUM_RE.match(self.src, self.pos)
            if not m2 or not m2.group(0).isdigit():
                self.pos = save
                self.fail("expected an integer denominator")
            den = int(m2.group(0))
            if den == 0:
                self.fail("zero denominator")
            self.pos = m2.end()
            return Fraction(num, den)
        return Fraction(num)

    def integer(self):
        self._ws()
        m = _NUM_RE.match(self.src, self.pos)
        if not m or not m.group(0).isdigit():
            self.fail("expected an integer")
        self.pos = m.end()
        return int(m.group(0))

    def signed_number(self):
        if self.peek() == "-":
            self.pos += 1
            return -self.number()
        return self.number()

    def matrix(self):
        self.expect("[")
        rows = [self.matrix_row()]
        while self.peek() == ";":
            self.pos += 1
            rows.append(self.matrix_row())
        self.expect("]")
        if any(len(r) != len(rows[0]) for r in rows):
            self.fail("ragged matrix rows")
        return rows

    def matrix_row(self):
        entries = [self.matrix_entry()]
        while self.peek() == ",":
            self.pos += 1
            entries.append(self.matrix_entry())
        return entries

    def matrix_entry(self):
        if self.peek() == "(":
            self.pos += 1
            comps = [self.signed_number()]
            for _ in range(3):
                self.expect(",")
                comps.append(self.signed_number())
            self.expect(")")
            return Quaternion(*comps)
        return self.signed_number()


def parse_field_expr(src, n):
    """Parse a field expression over H^n; raise ConfigError on bad input."""
    return _ExprParser(src, n).parse()


# ---------------------------------------------------------------------------
# report assembly and deterministic writers

def _fmt_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain repr even for numpy scalars
    return str(v)


def _render_csv(command, rows):
    cols = _COMMANDS[command].columns
    lines = [",".join(cols)]
    lines += [",".join(_fmt_cell(row.get(c)) for c in cols) for row in rows]
    return "\n".join(lines) + "\n"


def _render_json(report):
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _atomic_write(path, text):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_outputs(cfg, report, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if cfg.output_format in ("csv", "both"):
        p = out_dir / f"{cfg.command}.csv"
        _atomic_write(p, _render_csv(cfg.command, report["rows"]))
        written.append(p)
    if cfg.output_format in ("json", "both"):
        p = out_dir / f"{cfg.command}.json"
        _atomic_write(p, _render_json(report))
        written.append(p)
    return written


# ---------------------------------------------------------------------------
# shared command helpers


def _settings(cfg, section):
    """The command's [section] values: the config's over the table's defaults."""
    values = {**getattr(_COMMANDS[cfg.command], section), **getattr(cfg, section)}
    for key, value in values.items():
        if value is _REQUIRED:
            raise ConfigError(f"command {cfg.command!r} needs {key!r} in [{section}]")
    return values


def _parsed_fields(cfg):
    """Parse the field expressions the command reads (its named ones, or all
    of them); each must live on H^n for the run's n."""
    names = _COMMANDS[cfg.command].fields
    if names is None:
        names = sorted(cfg.fields)
        if not names:
            raise ConfigError(f"command {cfg.command!r} needs at least one entry "
                              "in [fields]")
    out = {}
    for name in names:
        if name not in cfg.fields:
            raise ConfigError(f"command {cfg.command!r} needs a field {name!r} "
                              "in [fields]")
        try:
            field = parse_field_expr(cfg.fields[name], cfg.n)
        except ConfigError as exc:
            raise ConfigError(f"field {name!r}: {exc}")
        if field.n != cfg.n:
            raise ConfigError(f"field {name!r} lives on H^{field.n}, run has n = {cfg.n}")
        out[name] = field
    return out


def _psd_quadratic(a, n):
    """Shift a hyperhermitian quadratic form until it is plurisubharmonic."""
    u = quadform(a)
    lam = float(np.linalg.eigvalsh(0.5 * u.hessian(np.zeros(4 * n))).min())
    shift = max(0.0, -lam) + 0.5
    return u + normsq(n) * shift


# ---------------------------------------------------------------------------
# commands


def _cmd_verify(cfg, params, tol):
    n = cfg.n
    rng = np.random.default_rng(cfg.seed)
    tol_id, tol_moore = tol["identity"], tol["moore"]
    rows = []

    def check(name, value, bound):
        rows.append({"check": name, "n": n, "value": float(value), "bound": float(bound),
                     "status": _verdict(value, bound)})

    # 200 (p, q) pairs drawn as random_quaternion draws them, embedded at once
    pairs = rng.standard_normal((200, 2, 4))
    prods = [(Quaternion(*p) * Quaternion(*q)).components for p, q in pairs]
    tau_pq = _tau_blocks(np.array(prods)[:, None, None])
    tau_p, tau_q = np.moveaxis(_tau_blocks(pairs[:, :, None, None]), 1, 0)
    check("embedding-multiplicative-quaternion",
          np.abs(tau_pq - tau_p @ tau_q).max(), tol_id)

    dev = 0.0
    for _ in range(20):
        a, b = random_qmatrix(rng, n), random_qmatrix(rng, n)
        dev = max(dev, float(np.abs((a @ b).tau() - a.tau() @ b.tau()).max()))
    check("embedding-multiplicative-matrix", dev, tol_id)

    jmat = jmatrix(n)
    dev = 0.0
    for _ in range(20):
        ta = random_qmatrix(rng, n).tau()
        dev = max(dev, float(np.abs(np.conj(ta) - jmat @ ta @ jmat.T).max()))
    check("embedding-j-conjugation", dev, tol_id)

    dev = 0.0
    for _ in range(10):
        a = random_hyperhermitian(rng, n, exact=True)
        md = float(moore_det(a))
        det_tau = complex(np.linalg.det(a.tau()))
        dev = max(dev, abs(det_tau - md * md) / max(1.0, md * md))
    check("moore-tau-determinant", dev, tol_moore)

    c = complex(top_coefficient(beta(n).wedge_power(n)))
    check("volume-form-normalization", abs(c - math.factorial(n)), tol_id)

    pts = rng.standard_normal((8, 4 * n))
    dev = 0.0
    for j, al in itertools.product(range(2 * n), (0, 1)):
        for k, be in itertools.product(range(2 * n), (0, 1)):
            target = 2 if (j, al) == (k, be) else 0
            g = nabla(z_field(n, k, be), j, al) - target
            if not g.is_exact_zero():
                dev = max(dev, float(np.abs(g.values(pts)).max()))
    check("coordinate-derivative-duality", dev, tol_id)

    dev = 0.0
    for j, al in itertools.product(range(2 * n), (0, 1)):
        g = nabla(normsq(n), j, al) - z_field(n, j, al).conj() * 2
        if not g.is_exact_zero():
            dev = max(dev, float(np.abs(g.values(pts)).max()))
    check("normsq-gradient-identity", dev, tol_id)

    dev = 0.0
    for x in rng.standard_normal((5, 4 * n)):
        dev = max(dev, float(np.abs(delta_matrix(normsq(n), x) - 4.0 * jmat).max()))
    check("normsq-curvature-constant", dev, tol_id)

    terms = {}
    for _ in range(12):
        deg = int(rng.integers(1, 4))
        exp = [0] * 4 * n
        for _ in range(deg):
            exp[int(rng.integers(0, 4 * n))] += 1
        coeff = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        if coeff:
            terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    cubic = Polynomial(n, terms)
    check("laplacian-form-closed", closedness_residual(laplace(cubic)), tol_id)

    shift = QMatrix.identity(n) * 4
    quad = quadform(random_hyperhermitian(rng, n, exact=True) + shift)
    _, ball = ball_points(n, 1.0, 16, cfg.seed + 1)
    check("moore-matching-equivalence", moore_equivalence_residual(quad, ball),
          tol_moore)

    pure = ma_density(quad, ball)
    mixed = mixed_ma([quad] * n, ball)
    scale = max(1.0, float(np.abs(pure).max()))
    check("mixed-density-consistency",
          float(np.abs(mixed - pure).max()) / scale, tol_moore)

    worst = 0.0
    for k in range(1, n + 1):
        elem = random_strongly_positive(rng, n, k)
        res = positivity_test(elem, samples=64, seed=cfg.seed + k)
        bad = max(0.0, -res.min_kappa) if math.isfinite(res.min_kappa) else 1.0
        if not res:
            bad = max(bad, 1.0)
        worst = max(worst, bad)
    check("strong-positivity-sampled", worst, tol["positivity"])

    summary = {"checks": len(rows)}
    return rows, summary


def _cmd_ma(cfg, params, tol):
    n, r, tol_moore = cfg.n, params["r"], tol["moore"]
    fields = _parsed_fields(cfg)
    _, pts = ball_points(n, r, 32, cfg.seed)

    rows = []
    psh_flags = {}

    def row(name, dens, residual, bound):
        rows.append({"field": name, "points": len(pts),
                     "min_density": float(dens.min()), "max_density": float(dens.max()),
                     "moore_residual": residual, "bound": bound,
                     "status": _verdict(residual, bound)})

    for name in sorted(fields):
        u = fields[name]
        residual = moore_equivalence_residual(u, pts)
        psh_flags[name] = bool(psh_test(u, pts))
        row(name, ma_density(u, pts), float(residual), tol_moore)
    if n >= 2 and len(fields) == n:
        # the polarized density needs exactly n potentials
        row("mixed", mixed_ma([fields[k] for k in sorted(fields)], pts), None, None)
    return rows, {"radius": r, "psh": psh_flags}


def _cmd_fundamental(cfg, params, tol):
    n, r, tol_mass = cfg.n, params["r"], tol["mass"]
    nodes = _settings(cfg, "quadrature")["radial_nodes"]
    limit = float(fundamental_mass_limit_coefficient(n)) * math.pi ** (2 * n)
    ray = np.eye(4 * n)[0]

    rows = []
    for eps in params["eps"]:
        dens = lambda rho: fundamental_ma_density(n, eps, rho[:, None] * ray)
        mass_quad = radial_ball_integral(n, dens, r, peak_scale=eps, nodes=nodes)
        mass_exact = float(fundamental_mass_exact(n, eps, r)) * math.pi ** (2 * n)
        rel = abs(mass_quad - mass_exact) / abs(mass_exact)
        rows.append({
            "eps": float(eps), "r": float(r),
            "mass_quadrature": mass_quad, "mass_exact": mass_exact,
            "mass_limit": limit, "rel_err": rel, "bound": tol_mass,
            "status": _verdict(rel, tol_mass),
        })
    return rows, {"limit": limit}


def _cmd_lelong(cfg, params, tol):
    n = cfg.n
    u = _parsed_fields(cfg)["u"]
    center = params["center"] or [0.0] * 4 * n

    current = RegularizedCurrent.from_laplace(u)
    profile, nu = lelong_number(current, np.asarray(center), params["radii"],
                                seed=cfg.seed, **cfg.quadrature)
    if n == 1 and math.hypot(*center) <= profile.radii[-1]:
        # on H^1, laplace of a pole is a point mass that no quadrature node
        # sees; the grammar can only place a pole at the origin
        with np.errstate(divide="ignore", invalid="ignore"):
            at_origin = u.value(np.zeros(4))
        if not math.isfinite(at_origin):
            raise ConfigError("field 'u' is not finite at the origin, inside the "
                              f"ball of radius {float(profile.radii[-1])!r}; its point "
                              "mass cannot be measured by quadrature")
    bad = set(profile.monotone_violations(slack=tol["monotonicity"]))
    rows = [{"radius": float(r), "normalized_mass": float(v), "error": float(e),
             "status": "fail" if k in bad else "pass"} for k, (r, v, e)
            in enumerate(zip(profile.radii, profile.values, profile.errors))]
    summary = {"nu": nu, "center": list(map(float, center)),
               "monotone_violations": sorted(bad),
               "rule": "radial" if current.radial_about(center) else "ball"}
    return rows, summary


def _verdict(value, bound):
    """A row's status: info without a bound, else pass iff |value| <= bound."""
    if bound is None:
        return "info"
    return "pass" if abs(value) <= bound else "fail"


def _quantity_row(name, value, bound=None):
    return {"quantity": name, "value": float(value),
            "bound": None if bound is None else float(bound),
            "status": _verdict(value, bound)}


def _cmd_jensen(cfg, params, tol):
    fields, r = _parsed_fields(cfg), params["r"]
    report = lelong_jensen(fields["phi"], fields["v"], r, seed=cfg.seed,
                           **cfg.quadrature)
    scale = max(abs(report.boundary_term), abs(report.interior_term), 1.0)
    rows = [
        _quantity_row("boundary_term", report.boundary_term),
        _quantity_row("interior_term", report.interior_term),
        _quantity_row("lhs", report.lhs),
        _quantity_row("rhs_spatial", report.rhs_spatial),
        _quantity_row("rhs_layered", report.rhs_layered),
        _quantity_row("residual_spatial", report.residual_spatial, tol["jensen"] * scale),
        _quantity_row("residual_layered", report.residual_layered,
                      tol["jensen_layered"] * scale),
    ]
    summary = {"r": r, "scale": scale,
               "errors": {k: float(v) for k, v in sorted(report.errors.items())}}
    return rows, summary


def _cmd_boundary(cfg, params, tol):
    phi, r = _parsed_fields(cfg)["phi"], params["r"]
    residual, mu1, interior = boundary_mass_residual(phi, r, seed=cfg.seed,
                                                     **cfg.quadrature)
    scale = max(abs(mu1), 1.0)

    # density floor on a sampled slice of the level set
    rule = StarShapedRule(phi, r, sphere_pow=5, seed=cfg.seed)
    dens = boundary_measure_density(phi, rule.points)
    negativity = max(0.0, -float(dens.min()))

    rows = [_quantity_row("boundary_mass", mu1), _quantity_row("interior_mass", interior),
            _quantity_row("mass_residual", residual, tol["boundary"] * scale),
            _quantity_row("density_negativity", negativity, tol["positivity"])]
    summary = {"r": r, "sample_points": len(rule.points)}
    return rows, summary


def _cmd_cln(cfg, params, tol):
    n, bound = cfg.n, tol["cln"]
    fields = _parsed_fields(cfg)
    if len(fields) > n:
        raise ConfigError(f"cln takes at most n = {n} fields, got {len(fields)}")
    inner, outer = params["inner_radius"], params["outer_radius"]
    rows = []

    def row(case, potentials, seed):
        ratio = cln_ratio(potentials, inner, outer, seed=seed, **cfg.quadrature)
        rows.append({"case": case, "ratio": float(ratio), "bound": bound,
                     "status": _verdict(ratio, bound)})

    row("configured", [fields[k] for k in sorted(fields)], cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    for t in range(params["trials"]):
        a = random_hyperhermitian(rng, n)
        row(f"trial_{t:02d}", [_psd_quadratic(a, n)] * min(n, 2), cfg.seed + t + 1)
    return rows, {"inner_radius": inner, "outer_radius": outer}


@dataclasses.dataclass(frozen=True)
class _Command:
    """A command's function, CSV columns and largest n, and the keys it
    reads: [fields] names (None: any, at least one) and [quadrature],
    [params] and [tolerances] keys with the CLI's defaults.  A [quadrature]
    default of None is the library's; a CLI one is also the least accepted."""

    run: object
    columns: tuple
    n_max: int = 2
    fields: tuple | None = ()
    quadrature: dict = dataclasses.field(default_factory=dict)
    params: dict = dataclasses.field(default_factory=dict)
    tolerances: dict = dataclasses.field(default_factory=dict)


_ROWS = ("quantity", "value", "bound", "status")
_COMMANDS = {
    "verify": _Command(_cmd_verify, ("check", "n", "value", "bound", "status"), n_max=3,
                       tolerances={"identity": 1e-10, "moore": 1e-9, "positivity": 1e-9}),
    "ma": _Command(_cmd_ma, ("field", "points", "min_density", "max_density",
                             "moore_residual", "bound", "status"),
                   fields=None, params={"r": 1.0}, tolerances={"moore": 1e-9}),
    "fundamental": _Command(_cmd_fundamental, ("eps", "r", "mass_quadrature", "mass_exact",
                                               "mass_limit", "rel_err", "bound", "status"),
                            quadrature={"radial_nodes": 32}, tolerances={"mass": 1e-6},
                            params={"r": 1.0, "eps": [1e-1, 1e-2, 1e-3]}),
    "lelong": _Command(_cmd_lelong, ("radius", "normalized_mass", "error", "status"),
                       fields=("u",), params={"radii": None, "center": None},
                       quadrature=dict.fromkeys(("sphere_pow", "radial_nodes")),
                       tolerances={"monotonicity": 3.0}),
    "jensen": _Command(_cmd_jensen, _ROWS, fields=("phi", "v"),
                       quadrature=dict.fromkeys(("t_nodes", "sphere_pow", "radial_nodes")),
                       params={"r": _REQUIRED},
                       tolerances={"jensen": 1e-3, "jensen_layered": 1e-2}),
    "boundary": _Command(_cmd_boundary, _ROWS, fields=("phi",),
                         quadrature=dict.fromkeys(("sphere_pow", "radial_nodes")),
                         params={"r": _REQUIRED},
                         tolerances={"boundary": 1e-3, "positivity": 1e-9}),
    "cln": _Command(_cmd_cln, ("case", "ratio", "bound", "status"), fields=None,
                    quadrature=dict.fromkeys(("sphere_pow", "radial_nodes")),
                    params={"inner_radius": 0.5, "outer_radius": 1.0, "trials": 0},
                    tolerances={"cln": 1e12}),
}
COMMANDS = tuple(_COMMANDS)


def _require_finite(value, where):
    """Raise at the first non-finite float inside a report value."""
    if isinstance(value, float) and not math.isfinite(value):
        raise NumericalInconsistencyError(f"{where} is not finite ({value!r})")
    if isinstance(value, dict):
        for key, item in value.items():
            _require_finite(item, f"{where} key {key!r}")
    elif isinstance(value, list):
        for k, item in enumerate(value):
            _require_finite(item, f"{where} item {k}")


def run_command(cfg):
    """Evaluate a parsed config; returns the full report dictionary."""
    command = _COMMANDS[cfg.command]
    if not 1 <= cfg.n <= command.n_max:
        raise ConfigError(f"command {cfg.command!r} needs 1 <= n <= {command.n_max}, "
                          f"got n = {cfg.n}")
    rows, summary = command.run(cfg, _settings(cfg, "params"),
                                _settings(cfg, "tolerances"))
    for i, row in enumerate(rows):
        for column, value in row.items():
            _require_finite(value, f"row {i} ({row[command.columns[0]]}) "
                                   f"column {column!r}")
    _require_finite(summary, "summary")
    statuses = [row["status"] for row in rows]
    evaluated = [s for s in statuses if s != "info"]
    if not evaluated:
        raise QmaError("no tolerance was evaluated; refusing to report success")
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "n": cfg.n,
        "seed": cfg.seed,
        "passed": all(s == "pass" for s in evaluated),
        "summary": summary,
        "rows": rows,
    }
    return report


# ---------------------------------------------------------------------------
# entry point


def _build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="qma",
        description="deterministic check runs for quaternionic potential theory")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--config", required=True, help="path to the run config")
    ap.add_argument("--out", help="output directory (default: [output] dir)")
    ap.add_argument("--seed", type=int, help="override the configured seed")
    return ap


def main(argv=None):
    ap = _build_arg_parser()
    args = ap.parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"qma: error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if cfg.command != args.command:
            raise ConfigError(f"config is for {cfg.command!r}, "
                              f"invoked as {args.command!r}")
        if args.seed is not None:
            if not 0 <= args.seed < 2 ** 64:
                raise ConfigError("seed must fit in an unsigned 64-bit integer")
            cfg.seed = args.seed
        report = run_command(cfg)
        out_dir = args.out if args.out is not None else cfg.output_dir
        written = write_outputs(cfg, report, out_dir)
    except Exception as exc:  # config or runtime failure -> exit 1
        print(f"qma: error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    print("status:", "ok" if report["passed"] else "tolerance failure")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
