"""Run one banditseq benchmark workload and print its result.

    python3 perfbench/run.py --workload pretrain_eval --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout: it imports ``banditseq`` from
``src/`` there and keeps its files (the trained seed, scratch
checkpoints) under ``.bench_build/perfbench/``. The first run builds the
trained seed, outside any timed region.

The last line of standard output is the result: ``correct``, ops
``attempted`` and ``failed`` and the ``metrics``. With ``--trace 0`` those
are the end-to-end metrics; with ``--trace 1`` the per-layer ones from a
traced run (``spans.py``). The line before it is a ``detail`` record: the
environment, the seed model's digest, per-round figures, any violated
check and, in a traced run, the self-time table and missing spans.
``compare.py`` reads these lines back. See README.md in this directory.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pretrain_eval", "el_baseline", "pr_sf")


def _git_sha(root):
    """HEAD of the checkout's git repository; None outside one."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, np, workloads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": _git_sha(root),
        "src_sha256": workloads.source_sha256(),
    }


def main(argv=None, scale=None, root=ROOT, workdir=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = root / "src"
    if not (src / "banditseq" / "__init__.py").is_file():
        print(f"error: no banditseq sources under {src}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import clock
    import spans
    import workloads

    scale = scale or workloads.DEFAULT
    workdir = workdir or str(root / ".bench_build" / "perfbench")
    tracer = spans.Tracer() if args.trace else spans.NoTrace()
    # The untraced run scales its times by the processor's measured speed
    # (clock.py); the traced run keeps wall times, as its spans do.
    timer = clock.Wall() if args.trace else clock.Calibrated()
    ctx = workloads.set_up(scale, workdir, tracer, timer)

    # A traced run alternates untraced and traced rounds; the untraced
    # ones give the reference for the tracing overhead and must reproduce
    # the traced rounds' digests.
    def tracer_for(i):
        return tracer if args.trace and i % 2 else spans.NoTrace()

    with timer.running():
        rounds = workloads.run_rounds(args.workload, ctx, args.seed,
                                      args.seconds, tracer_for)
    failed, problems = workloads.check_rounds(rounds)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "seed_model_sha256": ctx.seed_sha256,
        "environment": environment(root, np, workloads),
        "clock": timer.detail(),
        "setup_wall_s": [b - a for a, b in ctx.setup_spans],
        "rounds": [{"wall_s": r.wall_s, "ops": r.ops, "digest": r.digest,
                    "update_samples": len(r.update_spans),
                    "decode_sentences": r.decode_sentences,
                    "decode_wall_s": sum(b - a for a, b in r.decode_spans)}
                   for r in rounds],
        "problems": problems,
    }
    if args.trace:
        walls = [r.wall_s for r in rounds]
        overhead = statistics.median(walls[1::2]) / statistics.median(walls[0::2])
        metrics, missing, table = spans.layer_metrics(
            tracer, workloads.WORKLOADS[args.workload].expected_spans,
            100.0 * (overhead - 1.0))
        detail.update(missing=missing, self_time=table)
    else:
        metrics = workloads.end_to_end(rounds, ctx, timer.scaled)
        detail["wall_metrics"] = workloads.end_to_end(
            rounds, ctx, lambda a, b: b - a)
        detail["update_samples"] = sum(len(r.update_spans) for r in rounds)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": sum(r.ops for r in rounds),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # BLAS must see the thread count before numpy is first imported; one
    # thread is faster than two on these small matrices.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
