"""One repetition of a workload in a fresh interpreter.

Loads the generated config, validates it with ``sqbath.cli.parse_config``
and executes it through ``sqbath.cli.run`` or ``sqbath.cli.run_sweep``
(one process, no worker pool).  Writes a JSON record with the monotonic
time at which the config was validated (the parent turns it into the
set-up time), the wall and CPU time of the entry-point call without the
host probes taken during it, the host's slowdown during the call
(``calibrate.py``), the peak resident memory, the numerical error if one
was raised and, when traced, the per-layer metrics and spans (whose times
include the probes).

    python3 perfbench/repetition.py --src SRC --config CFG --out DIR \
        --entry run|sweep --record FILE [--trace]
    python3 perfbench/repetition.py --src SRC --info --record FILE
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--info", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--entry", choices=("run", "sweep"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import yaml

    from sqbath import SqbathError, cli

    package = Path(cli.__file__).resolve().parent
    if package.parent != Path(args.src).resolve():
        print(f"sqbath imported from {package}, expected {args.src}", file=sys.stderr)
        return 2
    if args.info:
        Path(args.record).write_text(json.dumps(_environment()))
        return 0

    with open(args.config) as handle:
        cfg = cli.parse_config(yaml.safe_load(handle))
    config_ready = time.monotonic()
    # imported only now, so that set-up time stays what sqbath alone imports
    from calibrate import HostSampler

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    error = None
    with HostSampler() as sampler:
        cpu0 = time.process_time()
        kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall0 = time.perf_counter()
        try:
            if args.entry == "run":
                cli.run(cfg, args.out)
            else:
                cli.run_sweep(cfg, args.out, threads=1)
        except SqbathError as exc:
            error = f"{type(exc).__name__}: {exc}"
        sampler.stop()
        wall = time.perf_counter() - wall0
        kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (
            time.process_time()
            - cpu0
            + (kids1.ru_utime - kids0.ru_utime)
            + (kids1.ru_stime - kids0.ru_stime)
        )
        probes_wall, probes_cpu = sampler.inside
    rss_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kids1.ru_maxrss
    )

    record = {
        "config_ready": config_ready,
        "wall_s": wall - probes_wall,
        "cpu_s": cpu - probes_cpu,
        "peak_rss_mb": rss_kib / 1024.0,
        "slowdown": sampler.slowdown(),
        "probes": len(sampler.samples),
        "error": error,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.span_dump()
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
