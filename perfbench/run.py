"""lumpkit benchmark: one workload, one seed, one result line.

Run from the root of a lumpkit checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Pipelines run back to back in this one process (a closed loop with one
client, no extra threads) for ``--seconds``, after one untimed warm-up
pipeline. Every pipeline's outputs are checked, against invariants and
against perfbench/reference.json. The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are diagnostics.

Host speed. On the shared 2-vCPU host this benchmark was defined on, a
fixed pure-Python loop took from 40 to 170 ms over the course of an hour,
and raw pipeline medians of identical code moved by up to 46% between
back-to-back runs. So every pipeline is bracketed by the speed probe of
probe.py (a fixed numpy loop of about 4 ms), and its time is reported in
reference seconds: wall seconds times PROBE_REFERENCE_S over the mean of the
probes before and after it. The probe runs no lumpkit code, so a change to
lumpkit moves the scaled numbers as much as the raw ones. ``setup_s`` alone
stays in raw seconds. Raw medians and the scale factors are printed next to
the metrics, together with a larger machine probe taken before and after the
run.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` spends the first half of the time untraced (per-command times
and the untraced pipeline median) and the second half traced, in whole
passes over the workload's catalogue so that the count metrics repeat
exactly; it reports the per-layer metrics and writes every span to
perfbench/out/spans-<workload>.csv.gz.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from probe import PROBE_REFERENCE_S, machine_probe, speed_probe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CLI_COMMANDS, WORKLOADS, compare, instance_id, schedule  # noqa: E402

SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "pipeline_s.p50": "s",
    "pipeline_s.p90": "s",
    "pipelines_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# layer -> per-layer metrics besides calls and self_s
LAYER_EXTRAS = {
    "model.parse": (),
    "model.drift": ("us_per_call",),
    "model.drift_dual": ("us_per_call", "singular"),
    "jacobian.sample": ("accept_ratio",),
    "lumping.lump": ("rows_out",),
    "lumping.search": ("lumps_per_search",),
    "lumping.epsilon_max": (),
    "lumping.staircase": (),
    "lumping.deviation": (),
    "simulate.integrate": ("steps", "drift_calls_per_step"),
    "simulate.lipschitz": (),
    "simulate.report": (),
    "simulate.write_csv": (),
}
EXTRA_UNITS = {
    "us_per_call": "us",
    "singular": "count",
    "accept_ratio": "ratio",
    "rows_out": "count",
    "lumps_per_search": "count",
    "steps": "count",
    "drift_calls_per_step": "calls/step",
}
CLI_LAYERS = tuple("cli." + c.replace("-", "_") for c in CLI_COMMANDS)


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def load_lumpkit():
    """Import lumpkit from this checkout's src/, never from elsewhere."""
    init = ROOT / "src" / "lumpkit" / "__init__.py"
    if not init.is_file() or not (ROOT / "models").is_dir():
        raise SystemExit(f"error: {ROOT} is not a lumpkit checkout (src/lumpkit and models/ required)")
    sys.path.insert(0, str(ROOT / "src"))
    import lumpkit
    import lumpkit.cli

    if Path(lumpkit.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported lumpkit from {lumpkit.__file__}, not {init}")
    return lumpkit


def measure_setup() -> list[float]:
    """Seconds spent in ``import lumpkit`` by fresh interpreters. The first
    child, which may compile bytecode, is discarded. Raw seconds: scaled by
    a speed probe in the parent or in the child, import times varied more
    than raw ones."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "import lumpkit\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-c", code, str(ROOT / "src")],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return times[1:]


class Loop:
    """Closed-loop pipelines over the seeded schedule, with output checks."""

    def __init__(self, lk, workload, order, reference):
        self.lk = lk
        self.workload = workload
        self.order = order
        self.reference = reference
        self.next = 0
        self.problems: list[str] = []

    def run(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Pipelines for ``seconds``, at least one. With a tracer, every call
        is traced and the loop also finishes its last pass over the
        catalogue."""
        span = plain_call if tracer is None else tracer.span
        raw, scaled, factors = [], [], {}
        command_seconds = defaultdict(list)
        counters = defaultdict(float)
        attempted = failed = 0
        first = self.next
        deadline = time.perf_counter() + seconds
        probe = speed_probe()
        while attempted == 0 or time.perf_counter() < deadline or (
            tracer is not None and (self.next - first) % len(self.order)
        ):
            pipeline = self.next
            self.next += 1
            key = self.order[pipeline % len(self.order)]
            inputs = self.workload.prepare(ROOT, key)
            attempted += 1
            if tracer is not None:
                tracer.pipeline = pipeline
            t0 = time.perf_counter()
            try:
                output, seconds_by_command = span("pipeline", self.workload.run, self.lk, inputs, span)
            except Exception as exc:  # any raise is a failed operation, not a crash
                failed += 1
                self.problems.append(f"{instance_id(key)}: raised {exc!r}")
                continue
            elapsed = time.perf_counter() - t0
            next_probe = speed_probe()
            factor = 2 * PROBE_REFERENCE_S / (probe + next_probe)
            probe = next_probe

            problems, observed, counts = self.workload.observe(self.lk, inputs, output)
            expected = self.reference.get(instance_id(key))
            if expected is None:
                problems.append("no reference recorded")
            elif not problems:
                problems = compare(observed, expected)
            if problems:
                failed += 1
                self.problems += [f"{instance_id(key)}: {p}" for p in problems]
                continue
            raw.append(elapsed)
            scaled.append(elapsed * factor)
            factors[pipeline] = factor
            for command, value in seconds_by_command.items():
                command_seconds[command].append(value * factor)
            for name, value in counts.items():
                counters[name] += value
        return {
            "raw": raw,
            "scaled": scaled,
            "factors": factors,
            "command_seconds": command_seconds,
            "counters": counters,
            "attempted": attempted,
            "failed": failed,
            "first": first,
            "pipelines": self.next - first,
        }


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _print_host(result: dict):
    factors = list(result["factors"].values())
    print(
        f"raw pipeline_s p50 {_percentile(result['raw'], 50):.6f} p90 {_percentile(result['raw'], 90):.6f}; "
        f"scale factor median {_percentile(factors, 50):.4f} (min {min(factors, default=0):.4f}, "
        f"max {max(factors, default=0):.4f})"
    )


def end_to_end(loop: Loop, seconds: float) -> tuple[dict, dict]:
    setup = measure_setup()
    result = loop.run(seconds)
    samples = result["scaled"]
    metrics = {
        "pipeline_s.p50": _percentile(samples, 50),
        "pipeline_s.p90": _percentile(samples, 90),
        "pipelines_per_s": len(samples) / sum(samples) if samples else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    print(f"samples: {len(samples)} pipelines")
    _print_host(result)
    print(f"setup runs (s): {[round(t, 4) for t in setup]}")
    for command, values in result["command_seconds"].items():
        print(f"cmd.{command.replace('-', '_')}_s.p50: {_percentile(values, 50):.6f} s")
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, result


def _layer_counts(cols, mask, n_pipelines) -> dict[str, float]:
    """Count metrics over the spans selected by mask, per pipeline."""
    layer = cols["layer"][mask]
    parent = cols["parent"][mask]
    size = cols["size"][mask]
    error = cols["error"][mask]
    parent_layer = np.where(parent >= 0, cols["layer"][np.maximum(parent, 0)], "")
    counts = {}
    for name in LAYER_EXTRAS:
        counts[f"{name}.calls"] = float(np.sum(layer == name))
    counts["model.drift_dual.singular"] = float(np.sum((layer == "model.drift_dual") & error))
    counts["jacobian.sample.evaluations"] = float(
        np.sum((layer == "model.drift_dual") & (parent_layer == "jacobian.sample"))
    )
    counts["jacobian.sample.dimension"] = float(np.sum(size[layer == "jacobian.sample"]))
    counts["lumping.lump.rows_out"] = float(np.sum(size[layer == "lumping.lump"]))
    counts["lumping.search.lumps"] = float(
        np.sum((layer == "lumping.lump") & (parent_layer == "lumping.search"))
    )
    counts["simulate.integrate.steps"] = float(np.sum(size[layer == "simulate.integrate"]))
    counts["simulate.integrate.drift_calls"] = float(
        np.sum((layer == "model.drift") & (parent_layer == "simulate.integrate"))
    )
    counts["spans"] = float(layer.size)
    return {k: v / n_pipelines for k, v in counts.items()}


def per_layer(loop: Loop, seconds: float) -> tuple[dict, bool]:
    untraced = loop.run(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = loop.run(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(HERE / "out" / f"spans-{loop.workload.name}.csv.gz")

    cols = tracer.columns()
    n = traced["pipelines"]
    in_run = cols["pipeline"] >= traced["first"]
    counts = _layer_counts(cols, in_run, n)

    # every pass over the catalogue runs the same inputs, so every pass must
    # give the same counts; this is what makes the count metrics repeat
    cycle = len(loop.order)
    pass_of = (cols["pipeline"] - traced["first"]) // cycle
    per_pass = [_layer_counts(cols, in_run & (pass_of == k), cycle) for k in range(n // cycle)]
    repeat_ok = True
    for k, other in enumerate(per_pass[1:], start=2):
        if other != per_pass[0]:
            repeat_ok = False
            diff = sorted(name for name in other if other[name] != per_pass[0][name])
            loop.problems.append(f"pass {k} counts differ from pass 1 in {diff}")
    print(
        f"traced passes over the catalogue: {len(per_pass)} ({n} pipelines); "
        f"count repeat check: {'ok' if repeat_ok else 'FAILED'}"
    )

    # span times in reference seconds, with their pipeline's scale factor
    layer = cols["layer"][in_run]
    scale = np.array([traced["factors"].get(int(p), 0.0) for p in cols["pipeline"][in_run]])
    self_time = cols["self"][in_run] * scale
    duration = cols["duration"][in_run] * scale
    if np.any(cols["self"][in_run] < -1e-9):
        loop.problems.append("negative self time in the trace")

    metrics = {}
    for name, extras in LAYER_EXTRAS.items():
        mine = layer == name
        calls = counts[f"{name}.calls"]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (float(np.sum(self_time[mine])) / n, "s")
        for extra in extras:
            if extra == "us_per_call":
                value = 1e6 * float(np.mean(duration[mine])) if calls else 0.0
            elif extra == "singular":
                value = counts["model.drift_dual.singular"]
            elif extra == "accept_ratio":
                evaluations = counts["jacobian.sample.evaluations"]
                value = counts["jacobian.sample.dimension"] / evaluations if evaluations else 0.0
            elif extra == "rows_out":
                value = counts["lumping.lump.rows_out"]
            elif extra == "lumps_per_search":
                value = counts["lumping.search.lumps"] / calls if calls else 0.0
            elif extra == "steps":
                value = counts["simulate.integrate.steps"]
            else:  # drift_calls_per_step
                steps = counts["simulate.integrate.steps"]
                value = counts["simulate.integrate.drift_calls"] / steps if steps else 0.0
            metrics[f"{name}.{extra}"] = (value, EXTRA_UNITS[extra])
    for name in CLI_LAYERS:
        metrics[f"{name}.self_s"] = (float(np.sum(self_time[layer == name])) / n, "s")
    metrics["cli.artifact_bytes"] = (traced["counters"].get("cli.artifact_bytes", 0.0) / n, "bytes")
    for command in CLI_COMMANDS:
        values = untraced["command_seconds"].get(command, [])
        metrics[f"cmd.{command.replace('-', '_')}_s.p50"] = (_percentile(values, 50), "s")
    attempted = untraced["attempted"] + traced["attempted"]
    failed = untraced["failed"] + traced["failed"]
    metrics["failed_frac"] = (failed / attempted, "ratio")
    untraced_p50 = _percentile(untraced["scaled"], 50)
    traced_p50 = _percentile(traced["scaled"], 50)
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")

    _print_host(untraced)
    print(f"pipeline p50 untraced {untraced_p50:.6f} s, traced {traced_p50:.6f} s; {counts['spans']:.0f} spans per pipeline")
    print("self-time share of the traced pipeline:")
    total = float(np.sum(self_time))
    shares = {name: float(np.sum(self_time[layer == name])) / total for name in set(layer)}
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name:24s} {100 * share:6.2f} %")
    return metrics, {"attempted": attempted, "failed": failed, "repeat_ok": repeat_ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    lk = load_lumpkit()
    # the bundled perturbed model's error bound overflows to inf with a
    # RuntimeWarning on every report; keep stderr readable
    warnings.filterwarnings("ignore", category=RuntimeWarning, module=r"lumpkit\.")
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    loop = Loop(lk, workload, schedule(workload, args.seed), reference)

    probe_before = machine_probe()
    # warm-up: imports, bytecode and first-call costs stay out of the samples
    loop.run(0.0)
    if args.trace:
        metrics, tally = per_layer(loop, args.seconds)
    else:
        metrics, result = end_to_end(loop, args.seconds)
        tally = {"attempted": result["attempted"], "failed": result["failed"], "repeat_ok": True}
    probe_after = machine_probe()
    print(
        "machine probe (ms) before/after: "
        + ", ".join(f"{k} {probe_before[k]:.1f}/{probe_after[k]:.1f}" for k in probe_before)
    )
    if args.trace:
        for k in probe_before:
            metrics[f"probe.{k}"] = ((probe_before[k] + probe_after[k]) / 2, "ms")

    for problem in loop.problems[:20]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    correct = not loop.problems and tally["repeat_ok"] and tally["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally["attempted"],
                "failed": tally["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
