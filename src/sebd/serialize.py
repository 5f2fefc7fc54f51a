"""On-disk formats: versioned CSV tables, sample-record lines, circuit and
Kraus-set JSON. Every format the package reads or writes lives here.

Every CSV starts with a schema comment line ``# schema=<name>`` followed by a
standard header row. Each table (TELEMETRY, TAU, BENCHMARK, COLLAPSE,
COLLAPSE_GRID, UNRAVEL) is stated once, as its tag and its ordered columns,
each with the format spec its values are written with; rows are dicts keyed
by column. Sample records are one line per trajectory: seed, output bits
grouped by lattice row (ASCII 0/1, scan order within a row), the
accumulated truncation log, and the peak bond dimension. Circuits (tagged
CIRCUIT_FORMAT) and Kraus sets are JSON, complex entries as [re, im] pairs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import KrausSet, NoiseModel, UnitalParams
from .lightcone import Circuit2D, LayerGates, build_lattice

__all__ = [
    "SerializeError",
    "Table",
    "TELEMETRY",
    "TAU",
    "BENCHMARK",
    "COLLAPSE",
    "COLLAPSE_GRID",
    "UNRAVEL",
    "write_csv",
    "read_csv",
    "format_sample_record",
    "parse_sample_record",
    "circuit_to_dict",
    "circuit_from_dict",
    "save_circuit",
    "load_circuit",
    "kraus_to_dict",
    "kraus_from_dict",
]

CIRCUIT_FORMAT = "sebd-circuit2d/1"


class SerializeError(ValueError):
    pass


@dataclass(frozen=True)
class Table:
    """One CSV schema: its tag, then its columns in order, each mapped to
    the format spec its values are written with ('' writes str(value))."""

    schema: str
    columns: dict

    def cells(self, row: dict) -> dict:
        """row's values as written, in column order; None writes as ''."""
        unknown = set(row) - set(self.columns)
        if unknown:
            raise SerializeError(f"{self.schema} has no columns {sorted(unknown)}")
        return {
            name: "" if row[name] is None else format(row[name], spec)
            for name, spec in self.columns.items()
            if name in row
        }


TELEMETRY = Table("sebd.telemetry.v1", {
    "trajectory": "", "seed": "", "ok": "d", "chi_max": "", "trunc_total": ".8e",
    "s_mid_max": ".8e",  # only with telemetry: [entropy]
})
TAU = Table("sebd.tau.v1", {
    "epsilon": "g", "L_x": "", "seed": "", "n_trajectories": "", "n_rows": "",
    "s_final": ".8e", "tau": ".8e", "tau_over_lx": ".8e", "residual": ".8e", "status": "",
})
BENCHMARK = Table("sebd.benchmark.v1", {
    "z": "", "K": "", "p_hat": ".10e", "se_hat": ".4e", "p_ref": ".10e",
    "reference": "", "ratio": ".8f", "ratio_se": ".4e",
})
COLLAPSE = Table("sebd.collapse.v1", {
    "eps_c": ".6f", "nu": ".4f", "r_min": ".8e", "eps_lo": ".6f", "eps_hi": ".6f",
    "nu_lo": ".4f", "nu_hi": ".4f", "identifiable": "d",
})
COLLAPSE_GRID = Table("sebd.collapse-grid.v1", {"eps_c": ".6f", "nu": ".4f", "r": ".8e"})
UNRAVEL = Table("sebd.unravel.v1", {
    "channel": "", "epsilon": "g", "form": "", "method": "",
    "x_cost": ".12f", "x_crit": ".12f", "phase_mf": "",
})


def write_csv(path, table: Table, rows):
    """Write dict rows under table's schema line.

    The header lists the table's columns that the rows hold (all of them
    when there are none); a row holding other columns raises SerializeError
    before the file is opened.
    """
    lines = [table.cells(row) for row in rows]
    header = list(lines[0]) if lines else list(table.columns)
    for cells in lines:
        if list(cells) != header:
            raise SerializeError(f"{table.schema}: row holds {list(cells)}, header {header}")
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# schema={table.schema}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(cells.values() for cells in lines)


def read_csv(path, table: Table) -> list:
    """Rows of a table write_csv wrote, as dicts of str keyed by column.

    Raises SerializeError on a missing or different schema line, a header
    naming a column the table does not have, or a row of another length.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        first = fh.readline().strip()
        if first != f"# schema={table.schema}":
            raise SerializeError(f"{path}: schema line {first!r}, expected {table.schema!r}")
        r = csv.reader(fh)
        header = next(r, [])
        rows = [row for row in r if row]
    unknown = set(header) - set(table.columns)
    if unknown:
        raise SerializeError(f"{path}: {table.schema} has no columns {sorted(unknown)}")
    if any(len(row) != len(header) for row in rows):
        raise SerializeError(f"{path}: a row's length differs from the header's")
    return [dict(zip(header, row)) for row in rows]


def format_sample_record(record) -> str:
    """One output line for a successful trajectory."""
    if record.failed is not None:
        raise SerializeError(f"cannot serialize failed trajectory: {record.failed}")
    by_row: dict = {}
    for (x, y), bit in record.z.items():
        by_row.setdefault(y, []).append((x, bit))
    groups = []
    for y in sorted(by_row):
        groups.append("".join(str(b) for _, b in sorted(by_row[y])))
    return " ".join(
        [str(record.seed), *groups, f"{record.trunc_total:.8e}", str(record.chi_max_seen)]
    )


def parse_sample_record(line: str):
    """Inverse of format_sample_record: (seed, row bit strings, trunc, chi)."""
    parts = line.split()
    if len(parts) < 4:
        raise SerializeError(f"malformed sample record: {line!r}")
    try:
        seed = int(parts[0])
        trunc = float(parts[-2])
        chi = int(parts[-1])
    except ValueError as exc:
        raise SerializeError(f"malformed sample record: {line!r}") from exc
    groups = tuple(parts[1:-2])
    if not groups or any(set(g) - {"0", "1"} for g in groups):
        raise SerializeError(f"malformed bit groups in record: {line!r}")
    return seed, groups, trunc, chi


def _mat_to_list(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _mat_from_list(rows) -> np.ndarray:
    return np.array([[complex(a, b) for a, b in row] for row in rows])


def _noise_to_dict(noise: NoiseModel | None):
    if noise is None:
        return None
    rec = {"kind": noise.kind, "epsilon": noise.epsilon}
    if noise.unital is not None:
        rec["unital"] = list(noise.unital.as_array())
    return rec


def _noise_from_dict(rec) -> NoiseModel | None:
    if rec is None:
        return None
    unital = UnitalParams(*rec["unital"]) if "unital" in rec else None
    return NoiseModel(rec["kind"], rec["epsilon"], unital)


def circuit_to_dict(c: Circuit2D) -> dict:
    return {
        "format": CIRCUIT_FORMAT,
        "lattice": {"kind": c.lattice.kind, "L_x": c.lattice.L_x, "L_y": c.lattice.L_y},
        "schedule": c.schedule,
        "noise": _noise_to_dict(c.noise),
        "layers": [
            {
                "rotations": [_mat_to_list(g) for g in lg.rotations],
                "gates": [[a, b, _mat_to_list(m)] for a, b, m in lg.gates],
            }
            for lg in c.layers
        ],
    }


def circuit_from_dict(rec: dict) -> Circuit2D:
    """Inverse of circuit_to_dict; Circuit2D checks the gates (CompileError)."""
    if rec.get("format") != CIRCUIT_FORMAT:
        raise SerializeError(f"not a {CIRCUIT_FORMAT} record")
    lat = build_lattice(rec["lattice"]["kind"], rec["lattice"]["L_x"], rec["lattice"]["L_y"])
    layers = tuple(
        LayerGates(
            tuple(_mat_from_list(g) for g in lg["rotations"]),
            tuple((a, b, _mat_from_list(m)) for a, b, m in lg["gates"]),
        )
        for lg in rec["layers"]
    )
    return Circuit2D(lat, rec["schedule"], layers, _noise_from_dict(rec["noise"]))


def save_circuit(path, circuit: Circuit2D):
    Path(path).write_text(json.dumps(circuit_to_dict(circuit), indent=1, sort_keys=True))


def load_circuit(path) -> Circuit2D:
    return circuit_from_dict(json.loads(Path(path).read_text()))


def kraus_to_dict(k: KrausSet) -> dict:
    """JSON-ready record: dimension, label, row-major (re, im) entry pairs."""
    return {
        "d": k.d,
        "label": k.label,
        "ops": [
            [[float(z.real), float(z.imag)] for z in m.ravel()] for m in k.ops
        ],
    }


def kraus_from_dict(rec: dict) -> KrausSet:
    d = int(rec["d"])
    ops = tuple(
        np.array([complex(re, im) for re, im in flat]).reshape(d, d)
        for flat in rec["ops"]
    )
    return KrausSet(ops, label=rec.get("label", ""))
