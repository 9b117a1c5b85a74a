"""Per-layer metrics from the spans of one traced run.

A span's self time is its duration minus the durations of its direct
children; children are recorded on the caller's thread, so self time is
per thread and never negative.  A layer's self time is the sum over its
spans.  ``fft.share`` is the FFT self time over the sum of all self
times, which equals the traced wall time on one thread and counts each
busy or waiting thread otherwise.  Every metric name here is listed under
``per_layer`` in ``BENCHMARK.json``, as are the probe metrics of
``probes.py``.
"""

from __future__ import annotations

import json
from collections import defaultdict

FFT_TRANSFORMS = ("rfft2", "irfft2", "fft2", "ifft2")

#: Unit of every traced per-layer metric.
UNITS = {
    **{f"fft.{t}.self_s": "s" for t in FFT_TRANSFORMS},
    "fft.calls": "count",
    "fft.transforms": "count",
    "fft.bytes_computed": "B",
    "fft.share": "ratio",
    "spectral.sobolev_norm.calls": "count",
    "spectral.sobolev_norm.self_s": "s",
    "spectral.self_s": "s",
    "euler.state_norm.calls": "count",
    "euler.state_norm.total_s": "s",
    "euler.self_s": "s",
    "families.calls": "count",
    "families.self_s": "s",
    "solver.evolve.calls": "count",
    "solver.evolve.total_s": "s",
    "solver.self_s": "s",
    "solver.rk4_steps": "count",
    "solver.grid_point_steps": "count",
    "solver.records": "count",
    "solver.transforms_per_step": "count",
    "solver.ns_per_point_step": "ns",
    "inequalities.product_exact.calls": "count",
    "inequalities.product_exact.self_s": "s",
    "inequalities.random_field.calls": "count",
    "inequalities.random_field.self_s": "s",
    "inequalities.self_s": "s",
    "lab.self_s": "s",
    "lab.cpu_s": "s",
    "lab.busy_threads": "ratio",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

LAYERS = ("fft", "spectral", "euler", "families", "solver", "inequalities", "lab", "cli")


def load_spans(path) -> list[dict]:
    with open(path, encoding="ascii") as handle:
        return [json.loads(line) for line in handle]


def layer_metrics(
    spans: list[dict], traced_wall_s: float, cpu_s: float, untraced_wall_s: float
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics and the self time of every layer.

    Raises ValueError when the spans are inconsistent: a negative self
    time, or (single-threaded) self times that do not add up to the
    ``cli.main`` span.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls: dict[str, int] = defaultdict(int)
    self_by_name: dict[str, float] = defaultdict(float)
    total_by_name: dict[str, float] = defaultdict(float)
    for s in spans:
        duration = s["end"] - s["start"]
        self_time = duration - child_time[s["id"]]
        if self_time < -1e-9:
            raise ValueError(f"negative self time {self_time:.3e} s for {s['name']}")
        calls[s["name"]] += 1
        self_by_name[s["name"]] += self_time
        total_by_name[s["name"]] += duration
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_by_name.items():
        layer_self[name.split(".")[0]] += value

    roots = [s for s in spans if s["name"] == "cli.main"]
    if len(roots) != 1:
        raise ValueError(f"expected one cli.main span, found {len(roots)}")
    if len({s["thread"] for s in spans}) == 1:
        root_duration = roots[0]["end"] - roots[0]["start"]
        if abs(sum(layer_self.values()) - root_duration) > 1e-6 * root_duration:
            raise ValueError("layer self times do not add up to the traced wall time")

    def under_evolve(span: dict) -> bool:
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == "solver.evolve":
                return True
            parent = by_id[parent]["parent"]
        return False

    fft = [s for s in spans if s["name"].startswith("fft.")]
    evolves = [s for s in spans if s["name"] == "solver.evolve"]
    steps = sum(s["data"]["steps"] for s in evolves)
    point_steps = sum(s["data"]["n"] ** 2 * s["data"]["steps"] for s in evolves)
    evolve_transforms = sum(s["data"]["batch"] for s in fft if under_evolve(s))
    busy = sum(layer_self.values())
    m = {f"fft.{t}.self_s": self_by_name[f"fft.{t}"] for t in FFT_TRANSFORMS}
    m.update(
        {
            "fft.calls": len(fft),
            "fft.transforms": sum(s["data"]["batch"] for s in fft),
            "fft.bytes_computed": sum(s["data"]["bytes"] for s in fft),
            "fft.share": layer_self["fft"] / busy,
            "spectral.sobolev_norm.calls": calls["spectral.sobolev_norm"],
            "spectral.sobolev_norm.self_s": self_by_name["spectral.sobolev_norm"],
            "spectral.self_s": layer_self["spectral"],
            "euler.state_norm.calls": calls["euler.state_norm"],
            "euler.state_norm.total_s": total_by_name["euler.state_norm"],
            "euler.self_s": layer_self["euler"],
            "families.calls": sum(n for k, n in calls.items() if k.startswith("families.")),
            "families.self_s": layer_self["families"],
            "solver.evolve.calls": len(evolves),
            "solver.evolve.total_s": total_by_name["solver.evolve"],
            "solver.self_s": layer_self["solver"],
            "solver.rk4_steps": steps,
            "solver.grid_point_steps": point_steps,
            "solver.records": sum(s["data"]["records"] for s in evolves),
            "solver.transforms_per_step": evolve_transforms / steps if steps else 0.0,
            "solver.ns_per_point_step": (
                1e9 * total_by_name["solver.evolve"] / point_steps if point_steps else 0.0
            ),
            "inequalities.product_exact.calls": calls["inequalities.product_exact"],
            "inequalities.product_exact.self_s": self_by_name["inequalities.product_exact"],
            "inequalities.random_field.calls": calls["inequalities.random_field"],
            "inequalities.random_field.self_s": self_by_name["inequalities.random_field"],
            "inequalities.self_s": layer_self["inequalities"],
            "lab.self_s": layer_self["lab"],
            "lab.cpu_s": cpu_s,
            "lab.busy_threads": cpu_s / traced_wall_s,
            "cli.self_s": layer_self["cli"],
            "trace.overhead_frac": (traced_wall_s - untraced_wall_s) / untraced_wall_s,
        }
    )
    return m, layer_self
