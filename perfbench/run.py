"""Benchmark of the freespec CLI: closed-loop workloads with checked reports.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``src/freespec``,
run as ``python -m freespec.cli`` children, one at a time (a closed loop with
one client).  Each iteration runs every report of the workload once.  It
times each child, reads its CPU time and peak RSS from ``os.wait4`` and
checks its CSV stdout: the exit code, the pinned sha256 of the whole report
where one is pinned, and for every seed the pinned digest of the report's
seed-independent columns.  A failed check fails the run; it is never
reported as a slow number.

``--trace 0`` reports the end-to-end metrics: medians over iterations of
wall time, child CPU time and peak RSS, and the median set-up time of
fresh interpreters (``probe_setup.py``).  Times are scaled to a reference
host speed, measured by a fixed loop right before and after each child
(``REFERENCE_LOOP_S``); the wall time as timed is printed beside them.
``--trace 1`` alternates an untraced iteration with the same argv run
in-process under spans (``traced.py``) and reports per-layer busy time,
self time and counts, unscaled.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` counts the cells
(rows of one parameter value) of every report run, ``failed`` the cells
that were skipped, plus one for a failed check.  Report digests are also
written to ``perfbench/out``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import busy_time, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MANIFEST = HERE / "manifest.json"

SETUP_PROBES_PER_ITERATION = 3
# Time of reference_loop_s() at the reference speed.  The host's speed drifts
# by up to 1.7x within minutes on a shared 2-vCPU machine, so each child's
# times are scaled by this over the loop's time measured around the child.
REFERENCE_LOOP_S = 0.016
CHILD_TIMEOUT_S = 150
# Iteration i of a run with seed s gives the program seed s * stride + i, so
# the iterations of one run see distinct inputs and two runs share none.
CHILD_SEED_STRIDE = 1000


class CheckFailed(Exception):
    pass


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: the host's current speed."""
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_child(cmd: list[str], stderr_path: Path) -> dict:
    """Run one child to completion; wall, CPU and peak RSS come from wait4.

    ``scale`` converts the child's times to the reference speed.
    """
    before = reference_loop_s()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(), cwd=ROOT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    after = reference_loop_s()
    return {
        "scale": REFERENCE_LOOP_S / ((before + after) / 2),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
        "out": out,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_report(manifest: dict, report: dict, argv: list[str], child: dict) -> dict:
    """Check one report against the manifest; return its digest and cell counts."""
    if child["code"] != 0:
        raise CheckFailed(f"exit code {child['code']} for: {' '.join(argv)}")
    digest = sha256(child["out"])
    pinned = manifest["pinned_sha256"].get(" ".join(argv))
    if pinned is not None and digest != pinned:
        raise CheckFailed(f"report digest {digest} != pinned {pinned} for: {' '.join(argv)}")
    lines = child["out"].decode("ascii", errors="replace").splitlines()
    if not lines or lines[0] != manifest["csv_header"]:
        raise CheckFailed(f"unexpected CSV header for: {' '.join(argv)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(lines[0].split(",")) for row in rows):
        raise CheckFailed(f"malformed CSV row for: {' '.join(argv)}")
    skeleton = sha256("\n".join(",".join(row[:6] + row[7:8]) for row in rows).encode())
    if skeleton != report["skeleton_sha256"]:
        raise CheckFailed(
            f"parameter/reference columns digest {skeleton} != pinned "
            f"{report['skeleton_sha256']} for: {' '.join(argv)}"
        )
    cells = {row[3] for row in rows}
    skipped = {row[3] for row in rows if row[6] == ""}
    return {"sha256": digest, "cells": len(cells), "skipped": len(skipped)}


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer busy time, self time and counts from one report's spans."""
    def named(name):
        return [s for s in spans if s[2] == name]

    def attr_sum(name, key):
        return sum(s[5].get(key, 0) for s in named(name))

    selfs = self_times(spans)
    cells = named("experiments.cell")
    return {
        "freeprod.vacuum_moments_s": busy_time(spans, "freeprod.vacuum_moments_distance_k"),
        "freeprod.neighbors_s": busy_time(spans, "freeprod.distance_k_neighbors"),
        "freeprod.neighbors_calls": len(named("freeprod.distance_k_neighbors")),
        "freeprod.neighbor_words": attr_sum("freeprod.distance_k_neighbors", "words"),
        "freeprod.layered_self_s": sum(
            selfs[s[0]] for s in named("freeprod.vacuum_moments_distance_k")
        ),
        "graphs.trace_moments_s": busy_time(spans, "graphs.trace_moments"),
        "graphs.trace_vertices": attr_sum("graphs.trace_moments", "vertices"),
        "graphs.distance_k_graph_s": busy_time(spans, "graphs.distance_k_graph"),
        "graphs.distance_k_edges": attr_sum("graphs.distance_k_graph", "edges"),
        "graphs.count_k_cycles_s": busy_time(spans, "graphs.count_k_cycles"),
        "regular.pairing_s": busy_time(spans, "regular.pairing_model"),
        "regular.pairing_graphs": len(named("regular.pairing_model")),
        "regular.pairing_shuffles": attr_sum("regular.pairing_model", "shuffles"),
        "experiments.run_cells_s": busy_time(spans, "experiments.run_cells"),
        "experiments.cells_traced": len(cells),
        "experiments.cell_max_s": max((s[4] - s[3] for s in cells), default=0.0),
        "polymoments.reference_s": busy_time(spans, "polymoments.reference"),
        "reports.render_s": busy_time(spans, "reports.render_csv"),
        "reports.bytes": attr_sum("reports.render_csv", "bytes"),
        "cli.self_s": sum(selfs[s[0]] for s in named("cli.main")),
    }


class Bench:
    def __init__(self, manifest: dict, workload: str, seed: int, out_dir: Path):
        self.manifest = manifest
        self.name = workload
        self.workload = manifest["workloads"][workload]
        self.seed = seed
        self.out_dir = out_dir
        self.digests: list[dict] = []
        self.cells = 0
        self.skipped = 0

    def argvs(self, iteration: int) -> list[list[str]]:
        child_seed = str(self.seed * CHILD_SEED_STRIDE + iteration)
        return [
            [arg.replace("{seed}", child_seed) for arg in report["argv"]]
            for report in self.workload["reports"]
        ]

    def probe_setup(self) -> float:
        cmd = [
            sys.executable, str(HERE / "probe_setup.py"), json.dumps(self.argvs(0)),
        ]
        child = run_child(cmd, self.out_dir / "stderr.txt")
        if child["code"] != 0:
            raise CheckFailed(f"set-up probe exited with {child['code']}")
        return child["wall"] * child["scale"]

    def iteration(self, i: int, traced: bool) -> dict:
        """Run every report of the workload once; sum walls and CPU, max RSS.

        ``wall`` and ``cpu`` are at the reference speed, ``raw_wall`` as timed.
        """
        total = {"wall": 0.0, "raw_wall": 0.0, "cpu": 0.0, "rss_mb": 0.0, "layers": []}
        for index, (report, argv) in enumerate(zip(self.workload["reports"], self.argvs(i))):
            spans_path = self.out_dir / f"spans-{self.name}-{index}.json"
            if traced:
                cmd = [sys.executable, str(HERE / "traced.py"), str(spans_path), *argv]
            else:
                cmd = [sys.executable, "-m", "freespec.cli", *argv]
            child = run_child(cmd, self.out_dir / "stderr.txt")
            checked = check_report(self.manifest, report, argv, child)
            self.digests.append({"argv": argv, "traced": traced, "sha256": checked["sha256"]})
            self.cells += checked["cells"]
            self.skipped += checked["skipped"]
            total["wall"] += child["wall"] * child["scale"]
            total["raw_wall"] += child["wall"]
            total["cpu"] += child["cpu"] * child["scale"]
            total["rss_mb"] = max(total["rss_mb"], child["rss_mb"])
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    spans = json.load(fh)["spans"]
                layers = layer_metrics(spans)
                layers["experiments.cells"] = checked["cells"]
                total["layers"].append(layers)
        return total

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics: medians over as many iterations as fit."""
        setup, walls, raw_walls, cpus, rsses = [], [], [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.mean(raw_walls) <= seconds:
            # probes spread over the run see the same machine as the iterations
            setup += [self.probe_setup() for _ in range(SETUP_PROBES_PER_ITERATION)]
            it = self.iteration(len(walls), traced=False)
            walls.append(it["wall"])
            raw_walls.append(it["raw_wall"])
            cpus.append(it["cpu"])
            rsses.append(it["rss_mb"])
        print(f"wall as timed: median {statistics.median(raw_walls):.6g} s")
        summary = {
            "wall_s": (walls, "s"),
            "cpu_s": (cpus, "s"),
            "peak_rss_mb": (rsses, "MB"),
            "setup_s": (setup, "s"),
        }
        return self.metrics(summary)

    def measure_traced(self, seconds: float) -> dict:
        """Per-layer metrics: untraced and traced iterations on the same argv."""
        plain, traced, layers = [], [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start + statistics.mean(
            a + b for a, b in zip(plain, traced)
        ) <= seconds:
            i = len(plain)
            plain.append(self.iteration(i, traced=False)["raw_wall"])
            it = self.iteration(i, traced=True)
            traced.append(it["raw_wall"])
            merged = {}
            for report_layers in it["layers"]:
                for key, value in report_layers.items():
                    if key == "experiments.cell_max_s":
                        merged[key] = max(merged.get(key, 0.0), value)
                    else:
                        merged[key] = merged.get(key, 0) + value
            shuffles = merged["regular.pairing_shuffles"]
            merged["regular.pairing_accept_ratio"] = (
                merged["regular.pairing_graphs"] / shuffles if shuffles else 0.0
            )
            layers.append(merged)
        summary = {name: ([layer[name] for layer in layers], unit_of(name)) for name in layers[0]}
        summary["trace.wall_s"] = (traced, "s")
        out = self.metrics(summary)
        out["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain),
            "unit": "s",
        }
        return out

    @staticmethod
    def metrics(summary: dict) -> dict:
        out = {}
        for name, (values, unit) in summary.items():
            print(
                f"{name}: median {statistics.median(values):.6g} {unit}, "
                f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}"
            )
            out[name] = {"value": statistics.median(values), "unit": unit}
        return out

    def write_digests(self) -> None:
        path = self.out_dir / f"digests-{self.name}-seed{self.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.digests, fh, indent=1)
        for entry in self.digests:
            print(f"digest {entry['sha256']} {' '.join(entry['argv'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "freespec" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'freespec'}", file=sys.stderr)
        return 2
    with open(MANIFEST, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if args.workload not in manifest["workloads"]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = Bench(manifest, args.workload, args.seed, OUT)
    print(f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, workload {args.workload}")
    try:
        # the first import compiles bytecode; keep it out of the set-up samples
        bench.probe_setup()
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics = bench.measure_traced(args.seconds)
        else:
            metrics = bench.measure(args.seconds)
        correct = True
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        stderr_tail = (OUT / "stderr.txt").read_text(errors="replace")[-2000:]
        if stderr_tail:
            print(stderr_tail, file=sys.stderr)
        metrics, correct = {}, False
    bench.write_digests()
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.cells, 1),
        "failed": bench.skipped + (0 if correct else 1),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
