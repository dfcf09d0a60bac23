"""Command-line interface.

Exit codes: 0 when the requested property holds (or output was produced),
1 when a check fails (the report carries a witness), 2 for invalid input,
3 for an internal error (a bug, reported with its traceback).
Reports are printed as canonical JSON by default; --format text renders the
same content as plain lines.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module
from pathlib import Path

# what every command uses; each command imports the rest of what it runs when
# it runs, so that a call compiles only the modules it needs
from . import io
from .core import validate
from .maps import validate_parts


def _module(name: str):
    """The submodule of this package called name, imported on first use."""
    return import_module(f".{name}", __package__)


def _emit(args, doc, text: str | None = None) -> None:
    if args.format == "json":
        sys.stdout.write(io.dumps_canonical(doc))
    else:
        sys.stdout.write(text if text is not None else _render_lines(doc))


def _render_lines(doc, prefix: str = "") -> str:
    out = []
    for k in sorted(doc) if isinstance(doc, dict) else []:
        v = doc[k]
        if isinstance(v, dict):
            out.append(f"{prefix}{k}:")
            out.append(_render_lines(v, prefix + "  "))
        else:
            out.append(f"{prefix}{k}: {v}")
    return "\n".join(out) + ("\n" if not prefix else "")


def _load_valid_object(path: str):
    X = io._from_file(path, io.object_from_doc, io.load_json(path))
    rep = validate(X)
    if not rep.ok:
        raise io.InterchangeError(f"{path}: invalid object: {rep.failure}")
    return X


def _load_valid_map(path: str):
    h = io._from_file(path, io.map_from_doc, io.load_json(path), Path(path).resolve().parent)
    label, rep = validate_parts(h)
    if not rep.ok:
        raise io.InterchangeError(f"{path}: invalid {label}: {rep.failure}")
    return h


def _cmd_validate(args) -> int:
    doc = io.load_json(args.path)
    if isinstance(doc, dict) and "level" in doc:
        f = io._from_file(args.path, io.map_from_doc, doc, Path(args.path).resolve().parent)
        _, rep = validate_parts(f)
        kind = "map"
    else:
        rep = validate(io._from_file(args.path, io.object_from_doc, doc))
        kind = "object"
    out = {"check": "validate", "subject": kind, "verdict": rep.ok}
    if kind == "object":
        out["has_buffer"] = rep.has_buffer
    if rep.failure is not None:
        out["witness"] = rep.failure.to_doc()
    _emit(args, out)
    return 0 if rep.ok else 1


def _cmd_pi0(args) -> int:
    from .components import pi0

    X = _load_valid_object(args.path)
    part = pi0(X)
    _emit(
        args,
        {
            "components": part.count,
            "vertex_class": part.vertex_class,
            "class_of": part.class_of,
        },
    )
    return 0


def _cmd_pi1(args) -> int:
    from .groupoids import pi1_presentation

    X = _load_valid_object(args.path)
    try:
        pres = pi1_presentation(X)
    except ValueError as exc:
        raise ValueError(f"{args.path}: {exc}") from exc
    _emit(args, pres.to_doc(), pres.format_text())
    return 0


# the report `check KIND map.json` computes for one map
_CHECKS = {
    "trivial-covering": lambda h, args: _module("components").trivial_covering_check(h),
    "covering": lambda h, args: _module("checks").covering_check(h),
    "kan": lambda h, args: _module("checks").kan_check(h, bound=args.bound),
    "separable-direct": lambda h, args: _module("checks").separable_direct(h),
    "separable-lifting": lambda h, args: _module("checks").separable_via_lifting(h),
}


def _cmd_check(args) -> int:
    if args.bound is not None and args.kind != "kan":
        raise ValueError(f"--bound applies only to kan, not to {args.kind}")
    h = _load_valid_map(args.map)
    rep = _CHECKS[args.kind](h, args)
    _emit(args, rep.to_doc())
    return 0 if rep.verdict else 1


def _gen_config(args, trials: int = 0):
    """The generator settings of a command line; only a campaign runs trials."""
    from .harness import GenConfig

    return GenConfig(
        seed=args.seed,
        max_nondegenerate_dim=args.max_dim,
        max_cells_per_degree=args.max_cells,
        trials=trials,
    )


# the reports `verify KIND map.json` computes for one map
_VERIFY_MAP = {
    "theorem1": lambda h: _module("checks").separability_agreement(h),
    "theorem2": lambda h: _module("checks").covering_agreement(h),
    "chain": lambda h: _module("checks").evaluate_instance(h),
}


def _cmd_verify(args) -> int:
    if args.map is not None:
        from .checks import holds

        h = _load_valid_map(args.map)
        rep = _VERIFY_MAP[args.kind](h)
        ok = holds(args.kind, rep)
        if args.kind == "chain":
            failures = rep.implication_failures() + rep.injection_failures()
            _emit(args, {"equivalence": "chain", "failures": failures, "ok": ok})
        else:
            _emit(args, rep.to_doc())
        return 0 if ok else 1
    from .harness import run_campaign

    campaign = run_campaign(_gen_config(args, trials=args.trials), jobs=args.jobs)
    doc = campaign.to_doc()
    doc["ok"] = campaign.holds(args.kind)
    _emit(args, doc, _campaign_text(doc))
    return 0 if doc["ok"] else 1


def _campaign_text(doc: dict) -> str:
    """The text of a campaign document: scored, each claim field, adequacy, ok.

    adequacy is a table, so it prints as indented key: value lines.
    """
    from .harness import _claim_fields

    lines = [f"scored: {doc['scored']} (skipped {doc['skipped']}, curated {doc['curated']})"]
    for key in _claim_fields([]):  # the claim fields, in document order
        value = doc[key]
        count = len(value) if isinstance(value, list) else value
        lines.append(f"{key.replace('_', ' ')}: {count}")
    lines += ["adequacy:", _render_lines(doc["adequacy"], "  "), f"ok: {doc['ok']}"]
    return "\n".join(lines) + "\n"


def _write(args, doc) -> int:
    """Write doc as canonical JSON to -o, or to stdout."""
    payload = io.dumps_canonical(doc)
    if args.output:
        Path(args.output).write_text(payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_gen(args) -> int:
    from .harness import gen_morphism, gen_sset

    cfg = _gen_config(args)
    if args.what == "object":
        return _write(args, io.object_to_doc(gen_sset(cfg, trial=args.trial)))
    _, h = gen_morphism(cfg, trial=args.trial)
    return _write(args, io.map_to_doc(h))


def _cmd_standard(args) -> int:
    from .standard import build_standard, parse_spec, union_spec

    specs = [parse_spec(s) for s in args.spec]
    spec = specs[0] if len(specs) == 1 else union_spec(*specs)
    truncation = args.truncation
    if truncation is None:
        truncation = spec.nondegenerate_dim() + 1
    return _write(args, io.object_to_doc(build_standard(spec, truncation)))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssetkit",
        description="Classify maps of finite truncated simplicial sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options several commands share, one parser per group
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    gen = argparse.ArgumentParser(add_help=False)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-dim", type=int, default=2)
    gen.add_argument("--max-cells", type=int, default=6)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", default=None)

    for name, func, summary in (
        ("validate", _cmd_validate, "validate an object or map file"),
        ("pi0", _cmd_pi0, "connected components of an object file"),
        ("pi1", _cmd_pi1, "fundamental groupoid presentation"),
    ):
        p = sub.add_parser(name, help=summary, parents=[fmt])
        p.add_argument("path")
        p.set_defaults(func=func)

    p = sub.add_parser("check", help="run one classifier on a map file", parents=[fmt])
    p.add_argument("kind", choices=sorted(_CHECKS))
    p.add_argument("map")
    p.add_argument("--bound", type=int, default=None, help="degree bound for kan")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "verify", help="verify an equivalence on a map or a campaign", parents=[gen, fmt]
    )
    p.add_argument("kind", choices=tuple(_VERIFY_MAP))
    p.add_argument("map", nargs="?", default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a generated object or map", parents=[gen, out])
    p.add_argument("what", choices=("object", "map"))
    p.add_argument("--trial", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("standard", help="emit a standard object", parents=[out])
    p.add_argument(
        "spec",
        nargs="+",
        help="spec strings like simplex:2, boundary:2, horn:2:1, circle,"
        " cyclic-cover:3; several specs form a disjoint union",
    )
    p.add_argument("-N", "--truncation", type=int, default=None)
    p.set_defaults(func=_cmd_standard)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        import traceback

        print(f"internal error:\n{traceback.format_exc()}", end="", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
