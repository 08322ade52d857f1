"""File formats: JSON for matrices, states, observables, assignment
problems and measurement statistics; CSV for correlation tables.

Matrices and vectors split into flat row-major "re"/"im" lists alongside
their dimension.  ``dump_json`` rounds every number to 12 significant
digits, and the CSV writer rounds its own, so that a report is
byte-identical across runs with the same inputs; the ``*_to_json``
writers return the exact values for it to round.

The readers and writers import the types they build when they run, so a
process that reads only a state does not load the other modules.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from .linalg import _integer, _list_of, _number

if TYPE_CHECKING:
    from .contexts import Observable
    from .contextuality import ValueAssignmentProblem
    from .correlations import CorrelationRecord
    from .mub import MeasurementStatistics


# Significant digits of every number in a report.
SIGNIFICANT_DIGITS = 12


def round_sig(x: float) -> float:
    """Round to ``SIGNIFICANT_DIGITS`` significant digits."""
    if x == 0.0 or not np.isfinite(x):
        return 0.0 if x == 0.0 else float(x)
    return float(f"{x:.{SIGNIFICANT_DIGITS}g}")


def jsonable(value: Any) -> Any:
    """Recursively convert numbers, arrays and containers for JSON output."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return round_sig(float(value))
    if isinstance(value, complex):
        return {"re": round_sig(value.real), "im": round_sig(value.imag)}
    return value


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    return {
        "dim": int(n),
        "re": a.real.reshape(-1).tolist(),
        "im": a.imag.reshape(-1).tolist(),
    }


def _require(ok: bool, what: str, key: str, shape: str) -> None:
    if not ok:
        raise ValueError(f'{what} needs "{key}" as {shape}')


def _fields(obj, what: str, *keys: str) -> list:
    """The values of ``keys`` in a JSON object; ValueError for any other shape."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(json.dumps, missing))}")
    return [obj[key] for key in keys]


def _floats(values: list, what: str, key: str) -> np.ndarray:
    """Checked JSON numbers as a float array; ValueError if one overflows."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f'{what} has a "{key}" entry too large for a float') from None


def _dim_and_parts(obj, what: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Shape-check a matrix or vector payload before reading its entries.

    It must be a JSON object with a positive integer "dim" and flat
    "re"/"im" lists of numbers that fit a float; anything else raises
    ValueError.
    """
    n, re, im = _fields(obj, what, "dim", "re", "im")
    _require(_integer(n) and n >= 1, what, "dim", f"a positive integer, got {n!r}")
    parts = []
    for key, values in (("re", re), ("im", im)):
        _require(_list_of(values, _number), what, key, "a flat list of numbers")
        parts.append(_floats(values, what, key))
    return n, parts[0], parts[1]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``re + i im`` written part by part: no arithmetic on the entries, so
    an infinite part stays in its place and a real part of -0.0 survives."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _matrix_from_parts(n: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The ``n x n`` matrix; ValueError unless its Frobenius norm is finite.

    A norm that overflows (entries near 1e154 and above) would be the
    eigensolver's scale, so such a matrix is refused here, once, rather
    than warned about and iterated on downstream.
    """
    if re.size != n * n or im.size != n * n:
        raise ValueError(
            f"matrix of dimension {n} needs {n * n} entries, "
            f"got {re.size} re / {im.size} im"
        )
    m = _complex(re, im).reshape(n, n)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(m)
    if not np.isfinite(norm):
        raise ValueError(
            "matrix entries must be finite, with a Frobenius norm that fits a float"
        )
    return m


def matrix_from_json(obj: dict) -> np.ndarray:
    return _matrix_from_parts(*_dim_and_parts(obj, "matrix"))


def vector_to_json(v) -> dict:
    a = np.asarray(v, dtype=complex).reshape(-1)
    return {
        "dim": int(a.size),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }


def _vector_from_parts(n: int, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    if re.size != n or im.size != n:
        raise ValueError(
            f"vector of dimension {n} needs {n} entries, "
            f"got {re.size} re / {im.size} im"
        )
    return _complex(re, im)


def load_state_json(obj: dict):
    """Dispatch a state file to PureState or DensityOperator by entry count.

    A file with dim entries per part is a pure state; dim^2 entries make
    a density matrix.  Both come back validated.
    """
    from .states import DensityOperator, PureState

    n, re, im = _dim_and_parts(obj, "state")
    if re.size == n:
        return PureState(_vector_from_parts(n, re, im))
    if re.size == n * n:
        return DensityOperator(_matrix_from_parts(n, re, im))
    raise ValueError(
        f"state file with dim {n} must carry {n} (vector) or {n * n} "
        f"(matrix) entries, got {re.size}"
    )


def observable_to_json(obs: Observable) -> dict:
    out = matrix_to_json(obs.matrix)
    out["label"] = obs.label
    return out


def observable_from_json(obj: dict) -> Observable:
    from .contexts import observable

    matrix = matrix_from_json(obj)
    return observable(matrix, label=str(obj.get("label", "")))


def problem_to_json(problem: ValueAssignmentProblem) -> dict:
    return {
        "observables": [matrix_to_json(m) for m in problem.observables],
        "labels": list(problem.labels),
        "contexts": [list(ctx) for ctx in problem.contexts],
        "signs": list(problem.signs),
    }


def problem_from_json(obj) -> ValueAssignmentProblem:
    """Read an assignment problem file; ValueError for any other shape."""
    from .contextuality import ValueAssignmentProblem

    what = "problem"
    observables, labels, contexts, signs = _fields(
        obj, what, "observables", "labels", "contexts", "signs"
    )
    _require(
        isinstance(observables, list) and len(observables) > 0,
        what, "observables", "a non-empty list of matrices",
    )
    return ValueAssignmentProblem(
        observables=tuple(matrix_from_json(m) for m in observables),
        labels=labels,
        contexts=contexts,
        signs=signs,
    )


def statistics_to_json(stats: MeasurementStatistics) -> dict:
    return {
        "dim": stats.dim,
        "tables": [list(row) for row in stats.tables],
        "samples": stats.samples,
        "seed": stats.seed,
    }


def statistics_from_json(obj) -> MeasurementStatistics:
    """Read a statistics file; ValueError for any other shape."""
    from .mub import MeasurementStatistics

    what = "statistics"
    dim, tables = _fields(obj, what, "dim", "tables")
    _require(
        _list_of(tables, lambda row: _list_of(row, _number)),
        what, "tables", "a list of lists of numbers",
    )
    return MeasurementStatistics(
        dim=dim,
        tables=[_floats(row, what, "tables").tolist() for row in tables],
        samples=obj.get("samples"),
        seed=obj.get("seed"),
    )


def dump_json(obj: Any, path: str | None = None) -> str:
    """Serialise deterministically; optionally also write to a file."""
    text = json.dumps(jsonable(obj), indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


CSV_COLUMNS = ("theta_degrees", "E", "p_pp", "p_pm", "p_mp", "p_mm")


def write_correlation_csv(
    path: str, rows: list[tuple[float, CorrelationRecord]]
) -> None:
    """Correlation sweep as CSV with one row per relative angle."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for theta_degrees, record in rows:
            writer.writerow(
                [
                    round_sig(theta_degrees),
                    round_sig(record.expectation),
                    round_sig(record.joint[(1, 1)]),
                    round_sig(record.joint[(1, -1)]),
                    round_sig(record.joint[(-1, 1)]),
                    round_sig(record.joint[(-1, -1)]),
                ]
            )
