"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python3 perfbench/compare.py --base base/*.out --new new/*.out

Each file holds the standard output of one ``run.py`` run (its ``detail``
line and its result line). Only untraced runs are compared. For every
end-to-end metric of BENCHMARK.json the script prints each side's median
and spread (distance between the quartiles, as a share of the median) and
the change in the metric's worse direction, and marks a change worse than
the metric's bound.

It exits with 1 if any metric regressed beyond its bound, if
``selected_ggleu`` changed on any ``--seed`` both sides ran (it is
deterministic for a given seed, and on the bandit workloads its median
cannot fall below the seed model's score, so broken learning shows only
per seed), if a new run is not ``correct``, or if the new side's share of
failed ops exceeds the base's. It refuses (exit 2) to pair runs whose
trained seed models differ, because their quality and timings are then
not comparable.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(paths):
    """{workload: [(detail, result)]} of the untraced runs in ``paths``."""
    runs = defaultdict(list)
    for path in paths:
        lines = [json.loads(line) for line in Path(path).read_text().splitlines()
                 if line.startswith("{")]
        detail, result = lines[-2]["detail"], lines[-1]
        if detail["trace"] == 0:
            runs[detail["workload"]].append((detail, result))
    return runs


def failed_share(runs):
    return (sum(r["failed"] for _, r in runs)
            / max(1, sum(r["attempted"] for _, r in runs)))


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base, new = load_runs(args.base), load_runs(args.new)

    seeds = {d["seed_model_sha256"] for side in (base, new)
             for runs in side.values() for d, _ in runs}
    if len(seeds) > 1:
        print(f"refusing to compare: the runs used {len(seeds)} different "
              f"trained seed models ({', '.join(sorted(s[:12] for s in seeds))})",
              file=sys.stderr)
        return 2

    regressed = False
    for workload in sorted(new):
        bad = sorted(d["seed"] for d, r in new[workload] if not r["correct"])
        if bad:
            print(f"{workload:14} not correct on seeds {bad}")
        was, now = failed_share(base[workload]), failed_share(new[workload])
        if now > was:
            print(f"{workload:14} failed ops {was:.2%} -> {now:.2%}")
        regressed |= bool(bad) or now > was
    print(f"{'workload':14} {'metric':24} {'base':>12} {'spread':>7} "
          f"{'new':>12} {'spread':>7} {'worse':>7} {'bound':>6}")
    for workload in sorted(set(base) & set(new)):
        for m in metrics:
            # A run whose rounds all raised has no value; it is not
            # correct, which is reported above.
            a, b = ([r["metrics"][m["name"]]["value"] for _, r in side[workload]
                     if r["metrics"][m["name"]]["value"] is not None]
                    for side in (base, new))
            if len(a) < 2 or len(b) < 2:
                continue
            (ma, sa), (mb, sb) = spread(a), spread(b)
            worse = (mb - ma) / ma * (1 if m["better"] == "lower" else -1)
            flag = "  REGRESSED" if worse > m["bound"] else ""
            regressed |= bool(flag)
            print(f"{workload:14} {m['name']:24} {ma:12.5g} {sa:7.1%} "
                  f"{mb:12.5g} {sb:7.1%} {worse:7.1%} {m['bound']:6.0%}{flag}")
        quality = [{d["seed"]: r["metrics"]["selected_ggleu"]["value"]
                    for d, r in side[workload]} for side in (base, new)]
        changed = sorted(seed for seed in set(quality[0]) & set(quality[1])
                         if quality[0][seed] != quality[1][seed])
        if changed:
            print(f"{workload:14} selected_ggleu changed on seeds {changed}")
        regressed |= bool(changed)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
