"""Output gate: parse each invocation's report and compare it with the
reference values recorded for the same workload and seed.

A gated value is a number the report states together with how far it may
move: the row's own error estimate where it has one, otherwise its bound.
"""

import csv
import hashlib
import io
import json
import math

# relative rounding allowance for values whose stated estimate is 0.0
ROUNDING = 1e-12

# column that each command checks against its row bound
CHECKED_COLUMN = {"verify": "value", "ma": "moore_residual",
                  "fundamental": "rel_err", "jensen": "value",
                  "boundary": "value", "cln": "ratio"}

# which summary error estimate belongs to which jensen row
_JENSEN_ESTIMATE = {"boundary_term": ("boundary",),
                    "interior_term": ("interior",),
                    "lhs": ("boundary", "interior"),
                    "rhs_spatial": ("spatial",),
                    "rhs_layered": ("layered",)}


class GateError(Exception):
    """An invocation's outputs are missing, unparsable or out of tolerance."""


def read_report(out_dir, command):
    """Load ``<command>.json`` and check ``<command>.csv`` states the same
    rows; returns (report, sha256 of both files)."""
    try:
        json_bytes = (out_dir / f"{command}.json").read_bytes()
        csv_bytes = (out_dir / f"{command}.csv").read_bytes()
    except OSError as exc:
        raise GateError(f"missing output: {exc}") from None
    try:
        report = json.loads(json_bytes)
        table = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    except (ValueError, csv.Error) as exc:
        raise GateError(f"unparsable output: {exc}") from None
    rows = report.get("rows")
    if not isinstance(rows, list) or len(rows) != len(table):
        raise GateError("CSV and JSON disagree on the number of rows")
    for row, line in zip(rows, table):
        for key, text in line.items():
            want = row.get(key)
            if want is None:
                ok = text == ""
            elif isinstance(want, float):
                ok = text != "" and float(text) == want
            else:
                ok = text == str(want)
            if not ok:
                raise GateError(f"CSV cell {key}={text!r} differs from JSON {want!r}")
    digest = hashlib.sha256(json_bytes + b"\0" + csv_bytes).hexdigest()
    return report, digest


def gated_values(report):
    """{key: (value, allowed_move)} for every gated number in a report."""
    command = report["command"]
    rows = report["rows"]
    out = {}
    if command == "verify":
        for row in rows:
            out[row["check"]] = (row["value"], row["bound"])
    elif command == "ma":
        for row in rows:
            if row["bound"] is not None:
                out[f"{row['field']}.moore_residual"] = (row["moore_residual"],
                                                         row["bound"])
    elif command == "fundamental":
        for row in rows:
            for col in ("mass_quadrature", "mass_exact", "mass_limit"):
                out[f"eps={row['eps']!r}.{col}"] = (row[col],
                                                    row["bound"] * abs(row[col]))
            out[f"eps={row['eps']!r}.rel_err"] = (row["rel_err"], row["bound"])
    elif command == "lelong":
        for row in rows:
            out[f"r={row['radius']!r}"] = (row["normalized_mass"], row["error"])
    elif command == "jensen":
        errors = report["summary"]["errors"]
        for row in rows:
            name = row["quantity"]
            if row["bound"] is not None:
                out[name] = (row["value"], row["bound"])
            else:
                out[name] = (row["value"],
                             sum(errors[k] for k in _JENSEN_ESTIMATE[name]))
    elif command == "boundary":
        by_name = {row["quantity"]: row for row in rows}
        identity_bound = by_name["mass_residual"]["bound"]
        for name, row in by_name.items():
            bound = row["bound"] if row["bound"] is not None else identity_bound
            out[name] = (row["value"], bound)
    elif command == "cln":
        for row in rows:
            out[row["case"]] = (row["ratio"], row["bound"])
    else:
        raise GateError(f"no gate for command {command!r}")
    return out


def bound_use(report):
    """Largest |checked value| / bound over the rows that carry a bound."""
    col = CHECKED_COLUMN.get(report["command"])
    uses = [abs(row[col]) / row["bound"] for row in report["rows"]
            if col is not None and row.get("bound")]
    return max(uses, default=0.0)


def compare(values, reference):
    """Raise GateError naming the first value that moved from its
    reference by more than its allowed move."""
    if set(values) != set(reference):
        raise GateError(f"rows differ from the reference: "
                        f"{sorted(set(values) ^ set(reference))}")
    for key in sorted(values):
        value, allowed = values[key]
        ref = reference[key]
        if not math.isfinite(value):
            raise GateError(f"{key} is not finite")
        limit = allowed + ROUNDING * max(1.0, abs(ref))
        if abs(value - ref) > limit:
            raise GateError(f"{key} = {value!r} moved from the reference {ref!r} "
                            f"by more than {limit:.3g}")
