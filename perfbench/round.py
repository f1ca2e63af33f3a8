"""One round of one workload, in a process of its own.

    python3 perfbench/round.py WORKLOAD SEED OUT_DIR RESULT_JSON [TRACE_JSON]

``run.py`` starts it with ``src`` on ``PYTHONPATH`` and BLAS pinned to one
thread. It writes its CPU times (``time.process_time`` at the first
sampled input and at the end), its end on the wall clock
(``time.monotonic``, comparable across processes), counts, check failures,
peak RSS and the machine facts to RESULT_JSON. With TRACE_JSON it wraps
maxnet's public functions, writes the spans there and adds the per-layer
metrics to the result.
"""

import json
import os
import platform
import resource
import sys
import time

t_import = time.process_time()
import maxnet  # noqa: E402  (timed: numpy, scipy and the package)

import_s = time.process_time() - t_import

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def blas_facts() -> dict:
    """Name, version and thread count in effect of numpy's BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    facts["blas_threads"] = int(fn())
                    return facts
    except OSError:
        pass
    return facts


def main(argv: list[str]) -> int:
    name, seed, out_dir, result_path = argv[0], int(argv[1]), argv[2], argv[3]
    trace_path = argv[4] if len(argv) > 4 else None
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(maxnet.__file__).startswith(src + os.sep):
        print(f"maxnet imported from {maxnet.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace_path:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    r = workloads.Round(out_dir, tracer)
    error = None
    try:
        workloads.WORKLOADS[name](r, seed)
    except workloads.OperationFailed as exc:
        error = str(exc)
    end = time.monotonic()
    end_cpu = time.process_time()
    result = {
        "end": end,
        "setup_cpu": r.setup_cpu if r.setup_cpu is not None else end_cpu,
        "end_cpu": end_cpu,
        "samples": r.samples,
        "attempted": r.attempted,
        "failed": r.failed,
        "failures": r.failures,
        "error": error,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            **blas_facts(),
            "seed": seed,
        },
    }
    if tracer is not None:
        tracer.dump(trace_path)
        result["layers"] = {"import.maxnet_s": import_s, **spans.layer_metrics(tracer)}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
