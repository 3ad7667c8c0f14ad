#!/usr/bin/env python3
"""Run bench/run.py in two checkouts, in alternating pairs, and write BENCH_<label>.json.

    python3 tools/pairs.py PARENT CHANGE --label after --pairs field-batch=10 \\
        --pairs cli-session=5 --seconds 50 --seed 501

PARENT and CHANGE are source checkouts, each with its own ``bench/run.py``,
which runs unchanged.  Each pair runs one workload untraced on one seed in
both checkouts, the parent first in even pairs and the change first in odd
ones; pairs are numbered across the whole file in the order of ``--pairs``,
and pair p runs seed ``--seed`` + p.  Before each run the ``__pycache__``
directories under the checkout's ``src/`` and ``bench/`` are removed, so
every run compiles what it imports as a fresh checkout would; when this
script runs with ``sys.flags.dont_write_bytecode`` set, so do the runs.

The output (``--out``, by default ``BENCH_<label>.json`` in the current
directory) holds the result line of every run, as ``bench/run.py`` printed
it, with each side's git revision, the Python version and the bytecode flag.
Standard error gets, per workload and end-to-end metric, each side's median
and quartiles and the number of pairs the change wins.  A run that prints no
result line stops the script with exit status 1.

Uses the standard library only.
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
from pathlib import Path

SIDES = ("parent", "change")
COMMAND = "python3 bench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0"
DESCRIPTION = ("Result lines printed by bench/run.py, unchanged, for runs of the parent and "
               "of the change, each in its own checkout with __pycache__ removed before each "
               "run; pairs alternate which side runs first, in the order listed.")


def revision(checkout: Path) -> str | None:
    """``git describe --always --dirty`` of ``checkout``, or None outside git."""
    proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    for top in ("src", "bench"):
        for cache in sorted((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed no result line "
                         f"(exit {proc.returncode})") from None


def summary(runs: list, better: dict) -> list[str]:
    """Per workload and metric: each side's median and quartiles, and the change's wins."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair: dict = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        failed = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        correct = all(p[side]["correct"] is True for p in pairs for side in SIDES)
        lines.append(f"{workload}: {len(pairs)} pairs, correct {correct}, failed operations "
                     f"parent {failed['parent']} change {failed['change']}")
        for metric, direction in better.items():
            values = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            stats = []
            for side in SIDES:
                v = values[side]
                q1, q3 = statistics.quantiles(v, n=4)[::2] if len(v) > 1 else (v[0], v[0])
                stats.append(f"{side} {statistics.median(v):.6g} ({q1:.6g}-{q3:.6g})")
            lines.append(f"  {metric}: {', '.join(stats)}; change better in {wins}/{len(pairs)}")
    return lines


def dump(doc: dict) -> str:
    """``doc`` as JSON with one key per line and one run per line."""
    head = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in doc.items()
            if key != "runs"]
    runs = ",\n".join(f"  {json.dumps(run)}" for run in doc["runs"])
    return "{\n" + ",\n".join(head) + f',\n "runs": [\n{runs}\n ]\n}}\n'


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="the seed of pair 0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        if not count.isdigit():
            parser.error(f"--pairs takes WORKLOAD=N, got {item!r}")
        plan += [workload] * int(count)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    env = dict(os.environ)
    if sys.flags.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = args.out or Path(f"BENCH_{args.label}.json")
    seconds = int(args.seconds) if args.seconds.is_integer() else args.seconds
    doc = {
        "label": args.label,
        "description": DESCRIPTION,
        "machine": f"{os.cpu_count()} cores, {platform.system()}, Python {platform.python_version()}",
        "parent": revision(checkouts["parent"]),
        "change": revision(checkouts["change"]),
        "python": platform.python_version(),
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "command": COMMAND,
        "runs": [],
    }
    for pair, workload in enumerate(plan):
        seed = args.seed + pair
        for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
            result = run_once(checkouts[side], workload, seed, args.seconds, env)
            doc["runs"].append({"side": side, "workload": workload, "seed": seed, "pair": pair,
                                "seconds": seconds, "trace": 0, "result": result})
            out.write_text(dump(doc))
            print(f"pair {pair} {workload} seed {seed} {side}: "
                  f"{json.dumps(result['metrics'])}", file=sys.stderr, flush=True)
    benchmark = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    print("\n".join(summary(doc["runs"], better)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
