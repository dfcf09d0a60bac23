"""The benchmark's workloads.

Each workload is a closed loop with one client: it runs one operation, waits
for it, checks its output outside the timed region, and runs the next.  A
workload provides

- ``setup(seed, workdir, smoke)``: build the inputs from the seed;
- ``op(i)``: the timed operation a user runs; returns its output;
- ``inproc_op(i)``: the same work run in this process, which is what the
  traced run wraps (differs from ``op`` for the CLI and for ``jobs=2``);
- ``check(i, out)``: the number of failed items in that output;
- ``items``: attempted items per operation (trials, maps or invocations);
- ``key(i)``: which of the workload's ``inputs`` fixed inputs operation i
  runs on; a run measures each of them at least once, even past its time;
- ``post_check()``: checks run once after the timed window, as
  ``(attempted, failed)``;
- ``mark(instance)``: labels the traced spans with the input in hand.

All ssetkit calls go through module attributes (``harness.run_campaign``,
``checks.revalidate_witness``) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io as stdio
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ssetkit import checks, cli, components, core, groupoids, harness, io, limits, maps, standard


class Workload:
    tracer = None  # set by the traced run
    parallel = False

    def mark(self, instance: str) -> None:
        """Label the spans that follow with the input they work on."""
        if self.tracer is not None:
            self.tracer.instance = instance

    def post_check(self) -> tuple[int, int]:
        return 0, 0


# ---------------------------------------------------------------- campaign


class Campaign(Workload):
    """``run_campaign(GenConfig(seed=b, trials=T))`` with the default mix.

    The corpus is a fixed pool of batches (GenConfig seeds 0, 1, ...), and
    the run seed picks the order in which a run goes through them.  Trial
    costs are heavy-tailed (median about 3 ms, the slowest nerve products
    over 200 ms), so a run that drew fresh batches would measure its own
    corpus as much as the program.  The pool is small enough that a run goes
    through it several times, so that each batch is timed more than once;
    every repeat must give a byte-identical document.
    """

    item = "trial"

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.parallel = jobs > 1

    def setup(self, seed: int, workdir: Path, smoke: bool) -> None:
        # jobs=2 gets larger batches so that pool start-up is amortised as
        # in a user's campaign.  Either pool is 400 to 800 trials, a few
        # seconds of work.
        self.trials = 4 if smoke else (100 if self.parallel else 25)
        pool = 4 if smoke else (8 if self.parallel else 16)
        self.items = self.trials
        self.order = random.Random(seed).sample(range(pool), pool)
        self.inputs = pool
        self.docs: dict[int, str] = {}
        self.corrupted_draws = 0
        self.scored_trials = 0

    def key(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def config(self, i: int):
        return harness.GenConfig(seed=self.key(i), trials=self.trials)

    def op(self, i: int):
        return harness.run_campaign(self.config(i), jobs=self.jobs)

    def inproc_op(self, i: int):
        self.corrupted_draws = 0
        self.mark(f"curated:{self.key(i)}")
        return harness.run_campaign(self.config(i), jobs=1)

    def before_gen(self, args) -> None:
        cfg, trial = args
        self.mark(f"{cfg.seed}:{trial}")

    def count_draw(self, result) -> None:
        if result[0] == "corrupted":
            self.corrupted_draws += 1

    def check(self, i: int, report, traced: bool = False) -> int:
        doc = io.dumps_canonical(report.to_doc(include_runtime=False))
        ok = report.ok and self.docs.setdefault(self.key(i), doc) == doc
        if traced:
            # the generator's invariant: a trial is skipped iff it is corrupted
            ok = ok and report.skipped == self.corrupted_draws
            self.scored_trials += report.scored - report.curated
        return 0 if ok else self.trials

    def post_check(self) -> tuple[int, int]:
        """Repeat the first batch at the other job count: same document."""
        other = 1 if self.jobs > 1 else 2
        report = harness.run_campaign(self.config(0), jobs=other)
        return self.trials, self.check(0, report)


# ------------------------------------------------------------------ ladder


def _circle_nerve(k: int):
    circle = standard.build_standard(standard.parse_spec("circle"), 3)
    return limits.product(circle, groupoids.nerve(groupoids.cyclic_group_groupoid(k), 3)).pr1


def _fold(n: int):
    return maps.fold_map(standard.build_standard(standard.parse_spec(f"simplex:{n}"), n + 1))


def _nonkan(k: int):
    # "cyclic-cover:k" is the spec that parses; the README's "cyclic:k" does not.
    return maps.terminal_map(standard.build_standard(standard.parse_spec(f"cyclic-cover:{k}"), 3))


# family -> (build function, full sizes, smoke sizes, expected verdicts).  Verdicts
# are (separable_direct, separable_lifting, covering, kan, trivial_covering,
# trivial_covering of the diagonal, injective); they do not depend on the
# size or on a relabelling.
LADDER = {
    "cyclic": (
        lambda k: maps.cyclic_cover_projection(k, 3),
        (16, 64, 128),
        (3, 4),
        (True, True, True, True, False, True, False),
    ),
    "nerve": (_circle_nerve, (4, 5), (2, 3), (False, False, False, True, False, False, False)),
    "fold": (_fold, (3, 4), (1, 2), (True, True, True, True, True, True, False)),
    "nonkan": (_nonkan, (16, 32), (2, 4), (False,) * 7),
}


def _permute_object(X, perms):
    """Relabel the cells of each degree n of X by x -> perms[n][x]."""
    N = X.truncation
    face = [[]]
    for n in range(1, N + 1):
        rows = []
        for i in range(n + 1):
            row = [0] * X.cells[n]
            for x, y in enumerate(X.face[n][i]):
                row[perms[n][x]] = perms[n - 1][y]
            rows.append(row)
        face.append(rows)
    degeneracy = []
    for n in range(N):
        rows = []
        for i in range(n + 1):
            row = [0] * X.cells[n]
            for x, y in enumerate(X.degeneracy[n][i]):
                row[perms[n][x]] = perms[n + 1][y]
            rows.append(row)
        degeneracy.append(rows)
    return core.TruncatedSSet(N, list(X.cells), face, degeneracy)


def relabel(h, rng: random.Random):
    """The same map with the cells of each degree of both ends permuted."""

    def perms_for(X):
        out = []
        for c in X.cells:
            p = list(range(c))
            rng.shuffle(p)
            out.append(p)
        return out

    pa, pb = perms_for(h.source), perms_for(h.target)
    level = []
    for n, row in enumerate(h.level):
        new = [0] * len(row)
        for x, y in enumerate(row):
            new[pa[n][x]] = pb[n][y]
        level.append(new)
    return maps.SimplicialMap(_permute_object(h.source, pa), _permute_object(h.target, pb), level)


class Ladder(Workload):
    """One pass verifies every map of the ladder once, as a user would.

    For each map: validate (both ends), validate_map, evaluate_instance,
    then revalidate_witness on every negative report; the diagonal's
    comparison witness is replayed against a rebuilt diagonal, as the
    campaign's witness audit does.  Each map is timed on its own too, so
    the pass time of each family is reported beside the whole pass.
    """

    item = "map"
    inputs = 1

    def setup(self, seed: int, workdir: Path, smoke: bool) -> None:
        rng = random.Random(seed)
        self.maps = [
            (family, k, relabel(build(k), rng))
            for family, (build, sizes, smoke_sizes, _) in LADDER.items()
            for k in (smoke_sizes if smoke else sizes)
        ]
        self.items = len(self.maps)
        self.family_s: dict[str, list[float]] = {family: [] for family in LADDER}

    def key(self, i: int) -> int:
        return 0  # every pass runs the same maps

    def op(self, i: int):
        out = []
        for family, k, h in self.maps:
            self.mark(f"{family}:{k}")
            t0 = time.perf_counter()
            valid = all(
                (core.validate(h.source).ok, core.validate(h.target).ok, maps.validate_map(h).ok)
            )
            v = harness.evaluate_instance(h)
            replayed = all(
                checks.revalidate_witness(h, rep)
                for rep in (v.direct, v.lifting, v.covering, v.kan, v.trivial)
                if not rep.verdict
            )
            if not v.trivial_delta.verdict:
                delta = limits.diagonal(h).delta
                replayed = replayed and checks.revalidate_witness(delta, v.trivial_delta)
            verdicts = (
                v.direct.verdict,
                v.lifting.verdict,
                v.covering.verdict,
                v.kan.verdict,
                v.trivial.verdict,
                v.trivial_delta.verdict,
                v.injective,
            )
            out.append((family, valid, verdicts, replayed, time.perf_counter() - t0))
        return out

    inproc_op = op

    def check(self, i: int, out, traced: bool = False) -> int:
        failed = 0
        per_family = dict.fromkeys(LADDER, 0.0)
        for family, valid, verdicts, replayed, seconds in out:
            per_family[family] += seconds
            if not (valid and replayed and verdicts == LADDER[family][3]):
                failed += 1
        if not traced:
            for family, seconds in per_family.items():
                self.family_s[family].append(seconds)
        return failed


# --------------------------------------------------------------------- cli

_COMMANDS = (
    ("check", "covering"),
    ("check", "kan"),
    ("check", "trivial-covering"),
    ("verify", "theorem1"),
    ("verify", "chain"),
    ("validate",),
)


def _expected_cli(argv: list[str], h) -> tuple[str, int]:
    """The canonical JSON and exit code the CLI must produce, computed in-process."""
    if argv[0] == "validate":
        # every map in the mix is valid by construction
        return io.dumps_canonical({"check": "validate", "subject": "map", "verdict": True}), 0
    kind = argv[1]
    if argv[0] == "check":
        rep = {
            "covering": checks.covering_check,
            "kan": checks.kan_check,
            "trivial-covering": components.trivial_covering_check,
        }[kind](h)
        return io.dumps_canonical(rep.to_doc()), 0 if rep.verdict else 1
    if kind == "theorem1":
        agreement = checks.separability_agreement(h)
        return io.dumps_canonical(agreement.to_doc()), 0 if agreement.agree else 1
    v = harness.evaluate_instance(h)
    failures = v.implication_failures() + v.injection_failures()
    doc = {"equivalence": "chain", "failures": failures, "ok": not failures}
    return io.dumps_canonical(doc), 0 if not failures else 1


class Cli(Workload):
    """Sequential ``python -m ssetkit.cli`` invocations over a fixed mix.

    The mix is every command in _COMMANDS on seed-generated maps (the bytes
    ``ssetkit gen map --seed S --trial t`` writes, for the first trials not
    drawn from the corrupted family) and on cyclic-cover maps, in a
    seed-shuffled order.
    """

    item = "invocation"
    items = 1

    def setup(self, seed: int, workdir: Path, smoke: bool) -> None:
        self.dir = workdir / f"cli-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.maps: dict[str, object] = {}
        cfg = harness.GenConfig(seed=seed)
        t = 0
        while len(self.maps) < (1 if smoke else 4):
            family, h = harness.gen_morphism(cfg, t)
            if family != "corrupted":
                self.maps[str(self.dir / f"gen-{t}.json")] = h
            t += 1
        for k in (3,) if smoke else (16, 64):
            self.maps[str(self.dir / f"cyclic-cover-{k}.json")] = maps.cyclic_cover_projection(k, 3)
        for path, h in self.maps.items():
            Path(path).write_text(io.dumps_canonical(io.map_to_doc(h)))
        self.mix = [list(cmd) + [path] for path in self.maps for cmd in _COMMANDS]
        random.Random(seed).shuffle(self.mix)
        self.inputs = len(self.mix)
        self.expected: dict[int, tuple[str, int]] = {}
        src = str(Path(cli.__file__).resolve().parents[1])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))

    def key(self, i: int) -> int:
        return i % len(self.mix)

    def argv(self, i: int) -> list[str]:
        return self.mix[self.key(i)]

    def op(self, i: int):
        proc = subprocess.run(
            [sys.executable, "-m", "ssetkit.cli", *self.argv(i)],
            capture_output=True,
            text=True,
            env=self.env,
            timeout=60,
        )
        return proc.stdout, proc.returncode

    def inproc_op(self, i: int):
        argv = self.argv(i)
        self.mark(" ".join(argv[:-1] + [Path(argv[-1]).name]))
        buf = stdio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return buf.getvalue(), code

    def check(self, i: int, out, traced: bool = False) -> int:
        key = self.key(i)
        if key not in self.expected:
            argv = self.mix[key]
            self.expected[key] = _expected_cli(argv, self.maps[argv[-1]])
        return 0 if tuple(out) == self.expected[key] else 1

    def interpreter_and_import_ms(self, repeats: int) -> tuple[float, float]:
        """Median wall time of ``python -c pass`` and the extra for importing the CLI."""
        def median_ms(code: str) -> float:
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=60)
                times.append((time.perf_counter() - t0) * 1000)
            return statistics.median(times)

        bare = median_ms("pass")
        return bare, median_ms("import ssetkit.cli") - bare


WORKLOADS = {
    "campaign": lambda: Campaign(jobs=1),
    "campaign-jobs2": lambda: Campaign(jobs=2),
    "ladder": Ladder,
    "cli": Cli,
}
