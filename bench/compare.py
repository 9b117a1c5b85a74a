"""Comparison of experiment artifacts against the reference artifacts.

An experiment's contract is its CSV and ``summary.json``.  Strings,
booleans and integers must match exactly.  Floats must agree to 10
significant digits: they may differ by less than one unit in the 10th
significant digit of the larger magnitude, or by at most ``ABS_FLOOR``
for round-off-sized values.
"""

from __future__ import annotations

import json
import math
import re
import shutil
from decimal import Decimal
from pathlib import Path

SIGNIFICANT_DIGITS = 10
ABS_FLOOR = 1e-12

_INT = re.compile(r"[+-]?\d+\Z")


def floats_agree(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    diff = abs(a - b)
    if diff <= ABS_FLOOR:
        return True
    exponent = math.floor(math.log10(max(abs(a), abs(b))))
    return diff < 10.0 ** (exponent - (SIGNIFICANT_DIGITS - 1))


def _cell(text: str):
    """A CSV cell as int, float or string, the way the lab wrote it."""
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def values_differ(got, want, where: str, exact_floats: bool = True) -> list[str]:
    """Differences between two JSON-style values, one message each.

    With ``exact_floats`` false, floats are only checked to be floats:
    the structure, strings, booleans and integers must still match.
    """
    if isinstance(want, bool) or isinstance(got, bool):
        same = type(got) is type(want) and got == want
    elif isinstance(want, float) and isinstance(got, float):
        same = floats_agree(got, want) or not exact_floats
    elif isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [
            m
            for k in want
            for m in values_differ(got[k], want[k], f"{where}.{k}", exact_floats)
        ]
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [
            m
            for i, (g, w) in enumerate(zip(got, want))
            for m in values_differ(g, w, f"{where}[{i}]", exact_floats)
        ]
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where}: {got!r} != {want!r}"]


def csv_rows(text: str) -> list[list]:
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def compare_dirs(
    got_dir: Path, want_dir: Path, exact_floats: bool = True, seed: int | None = None
) -> list[str]:
    """Differences between an output directory and a reference directory.

    ``seed``, when given, replaces the reference's ``params.seed``; the
    reference was captured at seed 0.
    """
    got_names = sorted(p.name for p in got_dir.iterdir())
    want_names = sorted(p.name for p in want_dir.iterdir())
    if got_names != want_names:
        return [f"files {got_names} != {want_names}"]
    problems = []
    for name in want_names:
        got = (got_dir / name).read_text(encoding="ascii")
        want = (want_dir / name).read_text(encoding="ascii")
        if name.endswith(".json"):
            want_value = json.loads(want)
            if seed is not None:
                want_value["params"]["seed"] = seed
            problems += values_differ(json.loads(got), want_value, name, exact_floats)
        else:
            problems += values_differ(csv_rows(got), csv_rows(want), name, exact_floats)
    return problems


def perturb(text: str, digit: int) -> str:
    """Add one unit in the given significant digit of a decimal float."""
    value = Decimal(text)
    step = Decimal(1).scaleb(value.adjusted() - (digit - 1))
    return repr(float(value + step.copy_sign(value)))


def self_test(reference: Path, scratch: Path) -> None:
    """Check that the tolerance accepts an 11th-digit and rejects a 9th-digit change.

    Copies the reference directory to ``scratch``, changes one CSV cell
    there and compares the copy against the reference.  The cell is the
    first float of magnitude at least 1e-2, so that a 9th-digit change is
    larger than ``ABS_FLOOR``.
    """
    (csv_path,) = reference.glob("*.csv")
    lines = csv_path.read_text(encoding="ascii").splitlines()
    row, column = next(
        (i, j)
        for i, line in enumerate(lines[1:], start=1)
        for j, cell in enumerate(line.split(","))
        if isinstance(_cell(cell), float) and abs(_cell(cell)) >= 1e-2
    )
    for digit, should_pass in ((11, True), (9, False)):
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(reference, scratch)
        cells = lines[row].split(",")
        old, cells[column] = cells[column], perturb(cells[column], digit)
        changed = lines[:row] + [",".join(cells)] + lines[row + 1 :]
        (scratch / csv_path.name).write_text("\n".join(changed) + "\n", encoding="ascii")
        problems = compare_dirs(scratch, reference)
        if (not problems) != should_pass:
            raise AssertionError(
                f"tolerance self-test failed: {old} -> {cells[column]} "
                f"(digit {digit}) gave {problems or 'no difference'}"
            )
    shutil.rmtree(scratch)
