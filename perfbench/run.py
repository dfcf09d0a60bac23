"""Benchmark for ssetkit: end-to-end metrics, or per-layer metrics when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Each run sets up the workload three times in fresh processes (``setup_s`` is
the median), then runs the workload in its own child process for
``--seconds`` so that its peak RSS is its own.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, the metrics named in BENCHMARK.json (``end_to_end`` with
``--trace 0``, ``per_layer`` with ``--trace 1``).  The lines before it, and
``.perfbench/result-<workload>-<seed>-<trace>.json``, record the run's
context: nproc, Python and numpy versions, git commit, host steal ticks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("campaign", "campaign-jobs2", "ladder", "cli")
SETUP_REPEATS = 3
CHILD_SLACK_S = 120  # beyond --seconds: imports, the last operation, post-checks


# ------------------------------------------------------------- child side


def _percentile_tail(values: list[float]) -> tuple[str, float]:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    best = ("max", max(values))
    for q in (50, 75, 90, 95, 99):
        if n * (100 - q) / 100 >= 10:
            best = (f"p{q}", statistics.quantiles(values, n=100, method="inclusive")[q - 1])
    return best


def _run_child(args) -> dict:
    """Set up and run one workload in this process; return the raw record."""
    import numpy

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    wl.setup(args.seed, WORK, args.smoke)
    if args.setup_only:
        return {}

    attempted = failed = 0
    op_s: list[float] = []
    op_keys: list[int] = []
    record: dict = {"numpy": numpy.__version__}
    deadline = time.perf_counter() + args.seconds

    def timed(fn, i):
        t0 = time.perf_counter()
        out = fn(i)
        return out, time.perf_counter() - t0

    if not args.trace:
        i = 0
        while i < wl.inputs or time.perf_counter() < deadline:
            out, dt = timed(wl.op, i)
            op_s.append(dt)
            op_keys.append(wl.key(i))
            attempted += wl.items
            failed += wl.check(i, out)
            i += 1
    else:
        useful = {"built": 0, "useful": 0, "pullback_cells": 0}

        def on_diagonal(dd):
            part = tracing_pi0(dd.fiber_product.object)
            meets = {part.vertex_class[v] for v in dd.image[0]}
            for n, row in enumerate(part.class_of):
                useful["built"] += len(row)
                useful["useful"] += sum(1 for c in row if c in meets)

        def on_pullback(fp):
            useful["pullback_cells"] += sum(fp.object.cells)

        from ssetkit import components

        tracing_pi0 = components.pi0
        before = {}
        after = {"limits.diagonal": on_diagonal, "limits.pullback": on_pullback}
        if isinstance(wl, workloads.Campaign):
            before["harness.gen_morphism"] = wl.before_gen
            after["harness.gen_morphism"] = wl.count_draw
        tracer = tracing.Tracer(before, after)
        wl.tracer = tracer
        plain_s: list[float] = []
        traced_s: list[float] = []
        parallel_s: list[float] = []
        i = 0
        while i < wl.inputs or time.perf_counter() < deadline:
            out, dt = timed(wl.inproc_op, i)
            plain_s.append(dt)
            failed += wl.check(i, out)
            out, dt = timed(lambda j: tracer.run_op(j, lambda: wl.inproc_op(j)), i)
            traced_s.append(dt)
            failed += wl.check(i, out, traced=True)
            attempted += 2 * wl.items
            if wl.parallel:
                out, dt = timed(wl.op, i)
                parallel_s.append(dt)
                failed += wl.check(i, out)
                attempted += wl.items
            i += 1
        summary = tracer.summary()[""]
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        wl.tracer = None
        record["trace"] = {
            "ops": i,
            "items": i * wl.items,
            "plain_s": plain_s,
            "traced_s": traced_s,
            "parallel_s": parallel_s,
            "summary": summary,
            "diagonal_cells_built": useful["built"],
            "diagonal_cells_useful": useful["useful"],
            "pullback_cells": useful["pullback_cells"],
        }
        if isinstance(wl, workloads.Cli):
            record["trace"]["interpreter_ms"], record["trace"]["import_ms"] = (
                wl.interpreter_and_import_ms(2 if args.smoke else 5)
            )
        if isinstance(wl, workloads.Campaign):
            record["trace"]["scored_trials"] = wl.scored_trials
            per_trial = tracer.instance_seconds()
            slowest = sorted((s, k) for k, s in per_trial.items() if not k.startswith("curated"))
            record["trace"]["slowest_trials"] = [(k, s) for s, k in slowest[-5:][::-1]]
        if isinstance(wl, workloads.Ladder):
            record["trace"]["family_self_ms"] = {
                family: {
                    name: agg["self_s"] * 1000 / i
                    for name, agg in sorted(
                        ((n, a) for n, a in by_name.items() if n != "bench.hook"),
                        key=lambda kv: -kv[1]["self_s"],
                    )[:5]
                }
                for family, by_name in tracer.summary(lambda inst: inst.split(":")[0]).items()
                if family in workloads.LADDER
            }
    post_attempted, post_failed = wl.post_check()
    attempted += post_attempted
    failed += post_failed
    record.update(
        op_s=op_s,
        op_keys=op_keys,
        items_per_op=wl.items,
        item=wl.item,
        attempted=attempted,
        failed=failed,
    )
    if isinstance(wl, workloads.Cli) and op_s:
        record["tail"] = _percentile_tail([t * 1000 for t in op_s])
    if isinstance(wl, workloads.Ladder) and wl.family_s["cyclic"]:
        record["family_s"] = {f: statistics.median(v) for f, v in wl.family_s.items()}
    return record


# ------------------------------------------------------------ parent side


def _steal_ticks() -> int | None:
    """Host steal ticks from /proc/stat (read only); None where unavailable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None
    except (OSError, ValueError):
        return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), path) if p))


def _child_argv(args, workload: str, extra: list[str]) -> list[str]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", workload]
    argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return argv + (["--smoke"] if args.smoke else []) + extra


def _spawn(argv: list[str], timeout: float) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=_child_env(), timeout=timeout)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def run_workload(args, workload: str) -> dict:
    """Set up SETUP_REPEATS times, run the workload once; return the full record."""
    steal0, t0 = _steal_ticks(), time.perf_counter()
    setup_argv = _child_argv(args, workload, ["--setup-only"])
    setup_s = [_spawn(setup_argv, CHILD_SLACK_S)[1] for _ in range(SETUP_REPEATS)]
    child, _ = _spawn(_child_argv(args, workload, []), args.seconds + CHILD_SLACK_S)
    steal1, wall = _steal_ticks(), time.perf_counter() - t0
    child["setup_s"] = setup_s
    child["workload"] = workload
    child["steal_ticks"] = None if steal0 is None or steal1 is None else steal1 - steal0
    child["wall_s"] = wall
    return child


def per_input_times(rec: dict) -> list[float]:
    """Median operation time of each distinct input the run measured.

    The campaign's batches and the CLI's commands differ widely in cost, so
    a run's figures are taken over its set of inputs, each at its median,
    and do not depend on which inputs the run happened to repeat.
    """
    by_key: dict[int, list[float]] = {}
    for key, seconds in zip(rec["op_keys"], rec["op_s"]):
        by_key.setdefault(key, []).append(seconds)
    return [statistics.median(v) for v in by_key.values()]


def end_to_end(rec: dict) -> dict[str, float]:
    return {
        "pass_s": sum(per_input_times(rec)),
        "peak_rss_mb": rec["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(rec["setup_s"]),
    }


def per_layer(rec: dict, layers) -> dict[str, float]:
    tr = rec["trace"]
    ops, items = tr["ops"], tr["items"]
    summ = tr["summary"]

    def calls(name: str) -> int:
        return summ.get(name, {"calls": 0})["calls"]

    out: dict[str, float] = {}
    for name in layers:
        agg = summ.get(name, {"calls": 0, "self_s": 0.0})
        out[f"{name}.calls"] = agg["calls"] / ops
        out[f"{name}.self_ms"] = agg["self_s"] * 1000 / ops
    traced_wall = sum(tr["traced_s"])
    audit = summ.get("checks.revalidate_witness", {"incl_s": 0.0})["incl_s"]
    out.update(
        {
            "limits.pullback.cells": tr["pullback_cells"] / ops,
            "components.pi0.calls_per_item": calls("components.pi0") / items,
            "limits.diagonal.calls_per_item": calls("limits.diagonal") / items,
            "scored_frac": tr.get("scored_trials", 0) / items,
            "audit_share": audit / traced_wall,
            "jobs2_speedup": (
                sum(tr["plain_s"]) / sum(tr["parallel_s"]) if tr["parallel_s"] else 0.0
            ),
            "fp_useful_ratio": (
                tr["diagonal_cells_useful"] / tr["diagonal_cells_built"]
                if tr["diagonal_cells_built"]
                else 0.0
            ),
            "interpreter_ms": tr.get("interpreter_ms", 0.0),
            "import_ms": tr.get("import_ms", 0.0),
            "tracing_overhead_ms": (traced_wall - sum(tr["plain_s"])) * 1000 / ops,
            "unattributed_ms": summ.get("op", {"self_s": 0.0})["self_s"] * 1000 / ops,
            "hook_ms": summ.get("bench.hook", {"self_s": 0.0})["self_s"] * 1000 / ops,
        }
    )
    return out


def unit_of(name: str) -> str:
    """The unit of a metric, from its name."""
    if name.endswith((".calls", ".cells")):
        return "count"
    for suffix, unit in (("_per_s", "1/s"), ("_mb", "MB"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def metrics_of(rec: dict, trace: int) -> dict[str, float]:
    import tracing

    if not trace:
        return end_to_end(rec)
    return per_layer(rec, [tracing.layer_name(m, f) for m, f in tracing.LAYERS])


def _describe(rec: dict, trace: int) -> list[str]:
    """Human-readable lines: context, bases of the ratios, accounting."""
    lines = [
        f"# workload {rec['workload']}: attempted {rec['attempted']} {rec['item']}s,"
        f" failed {rec['failed']} (failed_frac {rec['failed'] / rec['attempted']:.4f})",
        f"# nproc {os.cpu_count()}, python {platform.python_version()}, numpy {rec['numpy']},"
        f" commit {rec['commit']}, steal ticks {rec['steal_ticks']} over {rec['wall_s']:.1f} s",
        f"# setup runs (s): {', '.join(f'{s:.3f}' for s in rec['setup_s'])}",
    ]
    if not trace:
        ops = rec["op_s"]
        lines.append(
            f"# {len(ops)} ops of {rec['items_per_op']} {rec['item']}s over"
            f" {len(set(rec['op_keys']))} inputs, {sum(ops):.2f} s timed"
        )
        if "tail" in rec:
            name, value = rec["tail"]
            lines.append(f"# latency tail {name} = {value:.1f} ms over {len(ops)} invocations")
        if "family_s" in rec:
            lines.append("# median pass time per family (s): " + ", ".join(
                f"{f} {v:.3f}" for f, v in rec["family_s"].items()
            ))
    else:
        tr = rec["trace"]
        self_total = sum(a["self_s"] for a in tr["summary"].values())
        lines += [
            f"# traced {tr['ops']} ops ({tr['items']} {rec['item']}s): traced wall"
            f" {sum(tr['traced_s']):.3f} s, untraced {sum(tr['plain_s']):.3f} s,"
            f" sum of self times {self_total:.3f} s",
            f"# ratio bases: per item = per {rec['item']} ({tr['items']}); audit_share over"
            f" traced wall; fp_useful_ratio over {tr['diagonal_cells_built']} cells of"
            f" diagonal fiber products; jobs2_speedup over {len(tr['parallel_s'])} paired ops",
        ]
        for key, s in tr.get("slowest_trials", []):
            lines.append(f"# slow trial seed:trial {key}: {s * 1000:.1f} ms traced")
        for family, top in tr.get("family_self_ms", {}).items():
            lines.append(f"# {family} self ms per pass: " + ", ".join(
                f"{name} {ms:.1f}" for name, ms in top.items()
            ))
    return lines


def run_one(args, workload: str) -> dict:
    rec = run_workload(args, workload)
    rec["commit"] = _git_commit()
    rec["metrics"] = metrics_of(rec, args.trace)
    WORK.mkdir(exist_ok=True)
    out = WORK / f"result-{workload}-{args.seed}-{args.trace}.json"
    out.write_text(json.dumps(rec, indent=1, default=str))
    return rec


def _final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        }
    )


def summarize(recs: dict[str, dict]) -> dict[str, float]:
    """All end-to-end metrics by the names users read, from per-workload runs."""

    def trials_per_s(rec):
        return len(per_input_times(rec)) * rec["items_per_op"] / rec["metrics"]["pass_s"]

    out = {
        "setup_s": max(r["metrics"]["setup_s"] for r in recs.values()),
        "campaign.trials_per_s": trials_per_s(recs["campaign"]),
        "campaign.jobs2_trials_per_s": trials_per_s(recs["campaign-jobs2"]),
        "campaign.peak_rss_mb": max(
            recs[w]["metrics"]["peak_rss_mb"] for w in ("campaign", "campaign-jobs2")
        ),
        "ladder.peak_rss_mb": recs["ladder"]["metrics"]["peak_rss_mb"],
        "cli.latency_p50_ms": statistics.median(per_input_times(recs["cli"])) * 1000,
        "cli.latency_tail_ms": recs["cli"]["tail"][1],
    }
    for family, seconds in recs["ladder"]["family_s"].items():
        out[f"ladder.{family}_s"] = seconds
    for group in ("campaign", "ladder", "cli"):
        members = [r for w, r in recs.items() if w.split("-")[0] == group]
        out[f"{group}.failed_frac"] = sum(r["failed"] for r in members) / sum(
            r["attempted"] for r in members
        )
    return out


def smoke(args) -> int:
    """Every workload at tiny size, both modes; every BENCHMARK.json metric printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args.trace = trace
        for workload in WORKLOAD_NAMES:
            rec = run_one(args, workload)
            printed = {k: unit_of(k) for k in rec["metrics"]}
            for m in spec[key]:
                if printed.get(m["name"]) != m["unit"]:
                    problems.append(f"{workload} trace {trace}: {m['name']} [{m['unit']}] missing")
            extra = sorted(set(printed) - {m["name"] for m in spec[key]})
            if extra:
                problems.append(f"{workload} trace {trace}: {extra} not in BENCHMARK.json")
            if rec["failed"]:
                problems.append(f"{workload} trace {trace}: {rec['failed']} failed")
            print(f"smoke {workload} trace {trace}: {rec['attempted']} attempted,"
                  f" {rec['failed']} failed")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke ok" if not problems else "smoke FAILED")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, check metric names")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ssetkit" / "__init__.py").is_file():
        print(f"error: no ssetkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        import resource

        rec = _run_child(args)
        rss = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        print(json.dumps(dict(rec, peak_rss_kb=rss)))
        return 0
    if args.smoke:
        args.seconds = min(args.seconds, 0.2)
        return smoke(args)

    if args.workload != "all":
        rec = run_one(args, args.workload)
        for line in _describe(rec, args.trace):
            print(line)
        print(_final_line(rec["failed"] == 0, rec["attempted"], rec["failed"], rec["metrics"]))
        return 0

    recs = {w: run_one(args, w) for w in WORKLOAD_NAMES}
    for rec in recs.values():
        for line in _describe(rec, args.trace):
            print(line)
    attempted = sum(r["attempted"] for r in recs.values())
    failed = sum(r["failed"] for r in recs.values())
    if args.trace:
        metrics = {f"{w}.{k}": v for w, r in recs.items() for k, v in r["metrics"].items()}
        print(_final_line(failed == 0, attempted, failed, metrics))
        return 0
    summary = summarize(recs)
    for name, value in summary.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in summary.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
