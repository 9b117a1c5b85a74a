"""Golden artifacts: every experiment's CSV and summary.json at reduced configs.

``tests/golden/<experiment>/`` holds the files each runner wrote for the
config in ``CONFIGS``.  A rerun must reproduce them under the benchmark's
artifact contract (floats to 10 significant digits with a 1e-12 absolute
floor; strings, integers and booleans exactly), checked with the
comparison in ``bench/compare.py``.
"""

import importlib.util
from pathlib import Path

import pytest

from torusgas.lab import config_from_dict, run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("bench_compare", ROOT / "bench" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

_SHORT = {"n_list": [4, 8, 16], "solve": {"T": 0.1}}

CONFIGS = {
    "residue_scaling": {},
    "exact_check": {"n_list": [4], "solve": {"T": 0.25}},
    "error_scaling": _SHORT,
    "higher_norm": _SHORT,
    "nonuniform": _SHORT,
    "inequalities": {"n_list": [32, 64], "family_size": 20},
}


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_golden_artifacts(experiment, tmp_path):
    cfg = config_from_dict({**CONFIGS[experiment], "output_dir": str(tmp_path)}, experiment)
    run_experiment(cfg)
    assert compare.compare_dirs(tmp_path, GOLDEN / experiment) == []
