"""Golden artifacts: every experiment's CSV and summary.json at reduced configs.

``tests/golden/<experiment>/`` holds the files each runner wrote for the
config in ``CONFIGS``.  A rerun must reproduce them under the benchmark's
artifact contract (floats to 10 significant digits with a 1e-12 absolute
floor; strings, integers and booleans exactly), checked with the
comparison in ``bench/compare.py``.  The same configs show that the
thread count leaves every artifact unchanged, and that only the inequality
sweeps start ``lab``'s thread pool.  The benchmark's nonuniform workload,
run as ``bench/run.py`` runs it, must reproduce ``bench/reference/``,
which the test only reads.  The solver's row-block pool
(``euler._pool``) is not ``lab``'s: it follows the thread rule of
``spectral``, whatever the thread count, as in error_scaling's N = 256
control run here.
"""

from pathlib import Path

import pytest

from torusgas import lab
from torusgas.cli import main
from torusgas.lab import config_from_dict, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"
BENCH_REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"

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
def test_golden_artifacts(experiment, tmp_path, compare):
    cfg = config_from_dict({**CONFIGS[experiment], "output_dir": str(tmp_path)}, experiment)
    run_experiment(cfg)
    assert compare.compare_dirs(tmp_path, GOLDEN / experiment) == []


@pytest.mark.parametrize("experiment", sorted(CONFIGS))
def test_thread_count_leaves_artifacts_unchanged(experiment, tmp_path, kernel_threads):
    # inequalities maps its checks over a pool; the merge and the sums must
    # not see it, and the transforms' own thread counts must not depend on it
    texts, transform_threads = {}, {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
        data = {**CONFIGS[experiment], "threads": threads, "output_dir": str(out)}
        kernel_threads.clear()
        run_experiment(config_from_dict(data, experiment))
        names = (f"{experiment}.csv", "summary.json")
        texts[threads] = [(out / name).read_text() for name in names]
        transform_threads[threads] = sorted(kernel_threads)
    assert transform_threads[1] == transform_threads[2]
    (csv_one, summary_one), (csv_two, summary_two) = texts[1], texts[2]
    assert csv_one == csv_two
    assert summary_one.count('"threads": 1\n') == 1
    assert summary_one.replace('"threads": 1\n', '"threads": 2\n') == summary_two


def test_only_inequalities_starts_a_pool(monkeypatch):
    # threads=2 means pool workers for the inequality sweeps and nothing for
    # the n-sweeps, which run faster on one thread
    def refuse(*args, **kwargs):
        raise AssertionError("thread pool started")

    monkeypatch.setattr(lab, "ThreadPoolExecutor", refuse)
    for experiment in sorted(set(CONFIGS) - {"inequalities"}):
        run_experiment(config_from_dict({**CONFIGS[experiment], "threads": 2}, experiment))
    with pytest.raises(AssertionError, match="thread pool started"):
        data = {**CONFIGS["inequalities"], "threads": 2}
        run_experiment(config_from_dict(data, "inequalities"))


def test_nonuniform_workload_matches_bench_reference(tmp_path, capsys, compare):
    # the workload's command line in bench/run.py, at its default config
    out = tmp_path / "nonuniform"
    assert main(["nonuniform", "--threads", "1", "--out", str(out)]) == 0
    assert "nonuniform: PASS" in capsys.readouterr().out
    assert compare.compare_dirs(out, BENCH_REFERENCE / "nonuniform") == []
