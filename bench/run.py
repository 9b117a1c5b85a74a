"""Benchmark of the torusgas experiments, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --self-test

Each workload is one experiment run as a user runs it: ``torusgas.cli.main``
in a fresh interpreter, with the config in a JSON file and ``--out`` in
``.bench_out/``.  Runs form a closed loop: the next starts when the last
ends, and a new one starts only while it is expected to end within
``--seconds`` (at least one always runs).  Every run's CSV and
``summary.json`` are checked against ``bench/reference/``.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (time in ``main``,
median), ``setup_s`` (import of ``torusgas.cli``, median of several fresh
interpreters) and ``peak_rss_mb`` (peak resident set of a run, median).
Failed runs are counted in ``attempted``/``failed`` of the last line.
``--trace 1`` adds one traced run and the layer probes and prints the
per-layer metrics.  ``--all`` does both for every workload and prints a
table.  Machine facts and the ``src/`` line count go with every result,
into ``.bench_out/<run>/result.json``.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from compare import compare_dirs, self_test
from layers import UNITS as LAYER_UNITS
from layers import layer_metrics, load_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
OUT = ROOT / ".bench_out"

#: A run must end within this many seconds of its start.
DEADLINE_S = 170.0
#: Fresh interpreters whose import time gives the median ``setup_s``.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Workload:
    """One experiment invocation; ``why`` and ``loads`` record the choice."""

    name: str
    argv: tuple[str, ...]
    config: dict
    #: Whether the benchmark's --seed becomes the experiment's --seed.
    seeded: bool
    why: str
    #: The layers the workload loads, and which it should leave flat.
    loads: str

    @property
    def experiment(self) -> str:
        return self.argv[0].replace("-", "_")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="nonuniform",
            argv=("nonuniform", "--threads", "1"),
            config={},
            seeded=False,
            why="headline experiment, single-threaded: 8 evolve calls at N = 32..256, "
            "17 records each, 10 norms per record",
            loads="fft r/irfft2 and solver pointwise work; euler.state_norm ~3%; "
            "shows the RHS kernel, pruned transforms and pair symmetry",
        ),
        Workload(
            name="error_scaling_short",
            argv=("error-scaling", "--threads", "2"),
            # T = 1.0 takes ~112 s; at 0.25 the verdict and control still pass.
            config={"solve": {"T": 0.25}},
            seeded=False,
            why="only multi-threaded run: an N = 512 control run whose 4-field "
            "batch exceeds L2, after three parallel main runs",
            loads="fft and solver at N = 512, lab.busy_threads (scheduling); "
            "euler flat",
        ),
        Workload(
            name="inequalities",
            argv=("inequalities", "--threads", "1"),
            config={},
            seeded=True,
            why="never calls the solver: product_exact on doubled grids, full-plane "
            "fft2/ifft2, Python-loop random_field, 17 000 sobolev_norm calls",
            loads="inequalities, spectral and fft fft2/ifft2; solver flat",
        ),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def machine_facts() -> dict:
    """Cores, CPU model, cache sizes, versions and the src/ line count."""
    facts = {"cores": os.cpu_count(), "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            facts[f"l{level}_cache"] = size
    facts["python"] = platform.python_version()
    for package in ("numpy", "scipy"):
        try:
            facts[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            facts[package] = "unknown"
    facts["src_lines"] = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return facts


class Runner:
    """Starts the fresh interpreters of one benchmark run before a deadline."""

    def __init__(self, run_dir: Path, deadline: float) -> None:
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.count = 0

    def python(self, script: str, *args: str) -> tuple[dict | None, str, float]:
        """Run a bench script; return its result file, stdout and wall time."""
        self.count += 1
        result_path = self.run_dir / f"child-{self.count}.json"
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / script), str(result_path), *args],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print(f"{script} {' '.join(args)}: timed out", file=sys.stderr)
            return None, "", time.perf_counter() - start
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return None, proc.stdout, elapsed
        with open(result_path, encoding="ascii") as handle:
            return json.load(handle), proc.stdout, elapsed


def check_run(w: Workload, seed: int, result: dict | None, stdout: str, out: Path) -> list[str]:
    """Problems with one experiment run: exit code, verdict, artifacts."""
    if result is None:
        return ["run did not complete"]
    if result["exit_code"] != 0:
        return [f"main returned {result['exit_code']}"]
    if f"{w.experiment}: PASS" not in stdout:
        return [f"no PASS verdict in {stdout!r}"]
    exact = not w.seeded or seed == 0
    return compare_dirs(out, REFERENCE / w.name, exact_floats=exact, seed=seed if w.seeded else None)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, setup: bool) -> dict:
    """One benchmark run of a workload; returns counts, metrics and samples."""
    start = time.monotonic()
    run_dir = OUT / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(run_dir, start + DEADLINE_S)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(w.config), encoding="ascii")
    cli_args = [*w.argv, "--config", str(config_path)]
    if w.seeded:
        cli_args += ["--seed", str(seed)]

    report = {
        "workload": w.name,
        "why": w.why,
        "loads": w.loads,
        "seed": seed,
        "attempted": 0,
        "failed": 0,
        "problems": [],
    }

    def experiment(*trace_args: str) -> dict:
        out = run_dir / f"out-{report['attempted']}"
        result, stdout, elapsed = runner.python(
            "child.py", *trace_args, "--", *cli_args, "--out", str(out)
        )
        problems = check_run(w, seed, result, stdout, out)
        report["attempted"] += 1
        if problems:
            report["failed"] += 1
            report["problems"] += problems[:5]
        return result if result is not None else {"wall_s": elapsed, "exit_code": None}

    if setup:
        setups = [runner.python("child.py")[0] for _ in range(SETUP_SAMPLES)]
        report["setup_samples"] = [r["setup_s"] for r in setups if r is not None]
        if len(report["setup_samples"]) < SETUP_SAMPLES:
            report["problems"].append("an import of torusgas.cli failed")

    samples = []
    loop_start = time.monotonic()
    while True:
        began = time.monotonic()
        samples.append(experiment())
        now = time.monotonic()
        if now - loop_start + (now - began) > seconds:
            break
    report["wall_samples"] = [r["wall_s"] for r in samples]
    wall_s = statistics.median(report["wall_samples"])
    metrics = {
        "wall_s": wall_s,
        "peak_rss_mb": statistics.median(r.get("peak_rss_mb", 0.0) for r in samples),
    }
    if report.get("setup_samples"):
        metrics["setup_s"] = statistics.median(report["setup_samples"])

    if trace:
        spans_path = run_dir / "spans.jsonl"
        traced = experiment("--trace", str(spans_path), f"{w.name}-seed{seed}")
        if report["failed"] == 0:
            try:
                layer, layer_self = layer_metrics(
                    load_spans(spans_path), traced["wall_s"], traced["cpu_s"], wall_s
                )
            except ValueError as err:
                report["failed"] += 1
                report["problems"].append(f"trace: {err}")
            else:
                metrics.update(layer)
                report["layer_self_s"] = layer_self
        probes, _, _ = runner.python("probes.py")
        report["probes"] = probes
        if probes is None:
            report["problems"].append("probes did not complete")
        else:
            for row in probes:
                metrics[probe_name(row)] = row["best_s"]
    report["metrics"] = metrics
    report["facts"] = machine_facts()
    report["elapsed_s"] = time.monotonic() - start
    with open(run_dir / "result.json", "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=1)
    return report


def probe_name(row: dict) -> str:
    return f"probe.{row['probe']}.N{row['n']}.best_s"


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS.get(name) or "s"


def print_report(report: dict) -> None:
    facts = report["facts"]
    print(f"# {report['workload']} seed {report['seed']}: " + ", ".join(
        f"{k}={v}" for k, v in facts.items()
    ))
    for problem in report["problems"]:
        print(f"# problem: {problem}")
    fail_frac = report["failed"] / report["attempted"]
    print(f"{report['workload']} fail_frac = {fail_frac:.4g} ratio "
          f"({report['failed']} of {report['attempted']} runs)")
    for name, value in report["metrics"].items():
        print(f"{report['workload']} {name} = {value:.6g} {unit_of(name)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, traced and not")
    parser.add_argument("--self-test", action="store_true", help="check the artifact tolerance")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torusgas" / "cli.py").is_file():
        print(f"no torusgas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    self_test(REFERENCE / "nonuniform", OUT / f"self-test-{os.getpid()}")
    if args.self_test:
        print("artifact tolerance self-test passed")
        return 0

    if args.all:
        reports = [
            run_workload(w, args.seed, args.seconds, trace=True, setup=True)
            for w in WORKLOADS.values()
        ]
        for report in reports:
            print_report(report)
        print(f"\n{'workload':<22}{'wall_s':>10}{'setup_s':>10}{'peak_rss_mb':>13}{'fail_frac':>11}")
        print(f"{'':<22}{'s':>10}{'s':>10}{'MiB':>13}{'ratio':>11}")
        for r in reports:
            m = r["metrics"]
            print(f"{r['workload']:<22}{m['wall_s']:>10.3f}{m.get('setup_s', float('nan')):>10.3f}"
                  f"{m['peak_rss_mb']:>13.1f}{r['failed'] / r['attempted']:>11.3f}")
        print(f"per-layer metrics written to {OUT}/<workload>-seed{args.seed}-trace1/result.json")
        return 0 if all(r["failed"] == 0 for r in reports) else 1

    if args.workload is None:
        parser.error("give --workload, --all or --self-test")
    w = WORKLOADS[args.workload]
    report = run_workload(w, args.seed, args.seconds, trace=bool(args.trace), setup=not args.trace)
    print_report(report)
    if args.trace:
        names = list(LAYER_UNITS) + [probe_name(row) for row in report.get("probes") or []]
    else:
        names = list(END_TO_END_UNITS)
    metrics = {
        name: {"value": report["metrics"][name], "unit": unit_of(name)}
        for name in names
        if name in report["metrics"]
    }
    correct = report["failed"] == 0 and not report["problems"] and len(metrics) == len(names)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
