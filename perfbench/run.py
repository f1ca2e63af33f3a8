"""Benchmark of maxnet: one workload, one seed, whole rounds for a set time.

    python3 perfbench/run.py --workload mc_depth3 --seed 1 --seconds 20 --trace 0

Run from the root of a source tree. Each round is a fresh Python process
(``round.py``) with ``src`` on its path and BLAS and maxnet pinned to one
thread; rounds repeat until ``--seconds`` have passed. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``, the medians over rounds of the end-to-end metrics
(``--trace 0``) or of the per-layer metrics (``--trace 1``). A traced run
alternates untraced and traced rounds, so that it can report the tracing
overhead. Nets, CSVs and manifests go to a fresh directory under
``.perfbench-runs/``, removed at the end; traces stay there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
WORKLOADS = ("mc_depth3", "deep_scale", "narrow_floor", "separation")
DEADLINE_S = 170.0  # the whole run, rounds included, ends before this

# Times are CPU seconds of the round's process (user + system): on a shared
# virtual machine the host steals 15-50% of a round's wall time, so wall time
# measures the host rather than the program.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "samples_per_cpu_s": "1/s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "import.maxnet_s": "s",
    "cli.construct_s": "s",
    "cli.error_s": "s",
    "cli.bytes_written": "B",
    "constructions.build_s": "s",
    "constructions.weight_bytes": "B",
    "constructions.nonzeros": "count",
    "network.evaluate_batch_s": "s",
    "network.evaluate_batch_calls": "count",
    "network.rows": "count",
    "network.dense_macs": "count",
    "network.useful_macs": "count",
    "network.mac_density": "ratio",
    "network.serialize_s": "s",
    "network.deserialize_s": "s",
    "network.json_bytes": "B",
    "sampling.sample_s": "s",
    "sampling.row_max_s": "s",
    "sampling.mc_l2_error_self_s": "s",
    "sampling.samples": "count",
    "sampling.violation_s": "s",
    "sampling.violation_bytes": "B",
    "analysis.kernel_direction_s": "s",
    "analysis.constancy_s": "s",
    "analysis.parallelotope_floor_self_s": "s",
    "training.train_s": "s",
    "training.steps": "count",
    "trace.overhead_s": "s",
}


def round_figures(res: dict) -> dict:
    """End-to-end figures of one round, from its process's CPU clock."""
    setup, cpu = res["setup_cpu"], res["end_cpu"]
    return {
        "setup_s": setup,
        "cpu_s": cpu,
        "samples_per_cpu_s": res["samples"] / (cpu - setup) if cpu > setup else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def summarize(rounds: list[tuple[dict, dict]], trace: bool) -> dict:
    """Metrics of a run from its (result, figures) rounds: medians of the
    untraced rounds, or with ``trace`` of the traced ones."""
    plain = [fig for res, fig in rounds if "layers" not in res]
    if not trace:
        return {
            name: {"value": statistics.median(f[name] for f in plain), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    traced = [(res, fig) for res, fig in rounds if "layers" in res]
    values = {
        name: statistics.median(res["layers"][name] for res, _ in traced)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = (
        statistics.median(fig["cpu_s"] for _, fig in traced)
        - statistics.median(f["cpu_s"] for f in plain)
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_round(workload: str, seed: int, run_dir: Path, index: int, traced: bool,
              timeout: float) -> tuple[dict, dict]:
    out_dir = run_dir / f"round{index}"
    out_dir.mkdir()
    result_path = run_dir / f"result{index}.json"
    cmd = [sys.executable, str(HERE / "round.py"), workload, str(seed), str(out_dir), str(result_path)]
    if traced:
        cmd.append(str(run_dir / f"trace-round{index}.json"))
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        MAXNET_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(out_dir),
    )
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"round {index} did not finish in {timeout:.0f} s")
    if code != 0:
        raise RuntimeError(f"round {index} exited {code}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(out_dir)
    res["wall"] = res["end"] - started
    return res, round_figures(res)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "maxnet" / "__init__.py").is_file():
        print(f"no maxnet source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-seed{args.seed}-", dir=RUNS))
    start = time.monotonic()
    rounds: list[tuple[dict, dict]] = []
    longest = 0.0
    try:
        # a traced run needs at least one untraced and one traced round
        while (not rounds or time.monotonic() - start < args.seconds
               or (args.trace and len(rounds) < 2)):
            elapsed = time.monotonic() - start
            if rounds and elapsed + longest > DEADLINE_S:
                break
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(args.workload, args.seed, run_dir, len(rounds), traced,
                                    DEADLINE_S - elapsed))
            longest = max(longest, time.monotonic() - start - elapsed)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:
            shutil.rmtree(run_dir, ignore_errors=True)

    for i, (res, fig) in enumerate(rounds):
        kind = "traced" if "layers" in res else "untraced"
        print(f"round {i} ({kind}): " + " ".join(f"{k}={v:.6g}" for k, v in fig.items())
              + f" wall_clock_s={res['wall']:.6g}")
        for what in res["failures"] + ([res["error"]] if res["error"] else []):
            print(f"round {i}: FAILED {what}")
    print(json.dumps({"machine": rounds[0][0]["machine"], "workload": args.workload,
                      "rounds": len(rounds)}))
    print(json.dumps({
        "correct": all(not res["failures"] for res, _ in rounds),
        "attempted": sum(res["attempted"] for res, _ in rounds),
        "failed": sum(res["failed"] for res, _ in rounds),
        "metrics": summarize(rounds, bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
