"""Correctness checks: artifact invariants for every op, golden hashes and
acceptance values for the untimed reference pass.

Every timed op is checked for: every expected file present, every number
finite, Schmidt number K ≥ 1 wherever an artifact reports it, and
Σs² = 1 within 1e-12 wherever it exports the Schmidt spectrum.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SUM_S2_TOL = 1e-12

# Values and tolerances of tests/test_acceptance.py, criteria 5-7, at the
# exact reference inputs and the default grid (n = 512).
ACCEPTANCE = {
    "matched": {"schmidt_number": (2.56, 0.05 * 2.56), "eta_jsa": (0.75, 0.05),
                "s_db_0": (12.0, 0.5)},
    "walkoff": {"schmidt_number": (9.4, 0.05 * 9.4)},
}

_TEXT_CELLS = {"o", "e", "true", "false"}


class Invalid(Exception):
    """An artifact breaks an invariant."""


def load_json(path: Path):
    def reject(token):
        raise Invalid(f"{path.name}: non-finite literal {token}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def _finite_tree(value, where: str) -> None:
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, float):
            if not math.isfinite(item):
                raise Invalid(f"{where}: non-finite number {item}")
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())


def _check_k(k, where: str) -> None:
    if not (isinstance(k, (int, float)) and k >= 1.0):
        raise Invalid(f"{where}: Schmidt number {k!r} < 1")


def _check_json(path: Path) -> None:
    doc = load_json(path)
    _finite_tree(doc, path.name)
    if isinstance(doc, dict):
        if "schmidt_number" in doc:
            _check_k(doc["schmidt_number"], path.name)
        if "s" in doc:
            total = math.fsum(x * x for x in doc["s"])
            if abs(total - 1.0) > SUM_S2_TOL:
                raise Invalid(f"{path.name}: sum of s^2 = {total!r}")


def _numbers(cells: list[str], where: str) -> list[float]:
    try:
        return list(map(float, cells))
    except ValueError:
        pass
    values = []
    for cell in cells:
        if cell in _TEXT_CELLS:
            continue
        try:
            values.append(float(cell))
        except ValueError:
            raise Invalid(f"{where}: non-numeric cell {cell!r}") from None
    return values


def _is_header(line: str) -> bool:
    try:
        float(line.split(",", 1)[0])
    except ValueError:
        return True
    return False


def _check_csv(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",") if lines and _is_header(lines[0]) else None
    rows = lines[1:] if header else lines
    if not rows:
        raise Invalid(f"{path.name}: no data rows")
    width = len(header) if header else len(rows[0].split(","))
    k_col = header.index("k") if header and "k" in header else None
    for row in rows:
        cells = row.split(",")
        if len(cells) != width:
            raise Invalid(f"{path.name}: ragged row")
        if not all(map(math.isfinite, _numbers(cells, path.name))):
            raise Invalid(f"{path.name}: non-finite cell in {row[:80]!r}")
        if k_col is not None:
            _check_k(float(cells[k_col]), path.name)


def check_artifacts(out_dir: Path, expect: list[str]) -> str | None:
    """None when every expected artifact exists and holds its invariants,
    else the reason for the first failure."""
    for name in expect:
        path = out_dir / name
        if not path.is_file():
            return f"missing artifact {name}"
        try:
            (_check_json if name.endswith(".json") else _check_csv)(path)
        except Invalid as exc:
            return str(exc)
        except (ValueError, UnicodeDecodeError) as exc:
            return f"{name}: unreadable ({exc})"
    return None


def sha256_files(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def compare_hashes(kind: str, got: dict[str, str], want: dict) -> list[str]:
    expected = want.get(kind)
    if expected is None:
        return [f"{kind}: no recorded hashes"]
    return [f"{kind}: {name} differs from the recorded artifact"
            for name in sorted(set(expected) | set(got))
            if expected.get(name) != got.get(name)]


def compare_acceptance(values: dict) -> list[str]:
    """Mismatches of the library reference results against ACCEPTANCE."""
    problems = []
    for design, wanted in ACCEPTANCE.items():
        for key, (target, tol) in wanted.items():
            got = values.get(design, {}).get(key)
            if got is None or not abs(got - target) <= tol:
                problems.append(f"{design}: {key} = {got!r}, want {target} ± {tol:g}")
    return problems
