"""Command-line front end.

Exit codes are scripting contract: 0 success, 1 domain errors (bad
input, non-surjective map, failed verification), 2 budget or
inconclusive outcomes.  Output is byte-identical for identical inputs,
flags, and seed: reports embed the input hash and budgets, JSON is
emitted with sorted keys, and SVG is hand-built with fixed number
formatting.  Budgets must be positive (``--max-rounds`` may be 0).

Every report takes one emit path.  A ``cmd_*`` function computes its
answer once and returns ``(meta, result, exit_code, views)``: ``meta``
names the command, input hash and budgets, ``result`` is the JSON
payload, and ``views`` maps each other ``--emit`` choice of the
subcommand to a function that renders it.  ``main()`` wraps ``meta``
and ``result`` into the JSON envelope or calls the chosen view, and
turns every error into one stderr line and exit 1 or 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Callable, Iterable, Sequence

from .automorphisms import certify_automorphism, parse_endomorphism
from .folding import StallingsGraph, stallings_graph
from .geometry import (
    FIT_MIN_RADIUS,
    BudgetExceededError,
    divergence_estimate,
)
from .growth import (
    KIND_INCONCLUSIVE,
    GrowthParams,
    GrowthReport,
    classify_growth,
)
from .mapping_torus import UnstabilizedError, fiber_intersection, torus_group
from .splittings import (
    SplittingViolation,
    induce_torus_splitting,
    hierarchy_depth,
    is_complete,
    parse_hierarchy,
    parse_splitting,
    validate_hierarchy,
    validate_splitting,
    verify_fixed,
)
from .words import Basis, VerificationError, WordSyntaxError, basis as make_basis

SCHEMA = 2

# (meta, JSON result, exit code, renderer by non-JSON --emit choice)
Report = tuple[dict, dict, int, dict[str, Callable[[], str]]]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems are domain errors here
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _at_least(low: int) -> Callable[[str], int]:
    """argparse type for a budget: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _radii(text: str) -> list[int]:
    """argparse type for ``--radii``: comma-separated integers >= 1."""
    try:
        return [_at_least(1)(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        msg = f"must be comma-separated integers >= 1, got {text!r}"
    raise argparse.ArgumentTypeError(msg)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_input(value: str) -> str:
    """Inline map text when it contains '->', else a file path."""
    return value if "->" in value else _read_file(value)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _meta(command: str, source: str, budgets: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "input_sha256": _sha256(source),
        "budgets": budgets,
    }


def _json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _text(lines: Iterable[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(meta: dict, rows: Iterable[str]) -> str:
    """CSV rows under ``# key: value`` lines for the report's meta."""
    lines = [f"# schema: {meta['schema']}", f"# command: {meta['command']}"]
    lines.append(f"# input_sha256: {meta['input_sha256']}")
    for key in sorted(meta["budgets"]):
        lines.append(f"# {key}: {meta['budgets'][key]}")
    return _text([*lines, *rows])


def _svg_plot(
    points: list[tuple[float, float]],
    title: str,
    meta: dict,
    fit: tuple[float, float] | None = None,
) -> str:
    width, height, pad = 480, 320, 40
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f"<title>{title}</title>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="20" font-size="12" font-family="monospace">{title}</text>',
        f'<text x="{pad}" y="{height - 8}" font-size="9" font-family="monospace">'
        f'input {meta["input_sha256"][:16]}</text>',
    ]
    if points:
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        sx = (width - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
        sy = (height - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)

        def px(x: float) -> float:
            return pad + (x - x0) * sx

        def py(y: float) -> float:
            return height - pad - (y - y0) * sy

        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        body += [
            f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
            f'y2="{height - pad}" stroke="black"/>',
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
            f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        ]
        body += [
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="crimson"/>'
            for x, y in points
        ]
        if fit is not None:
            slope, intercept = fit
            body.append(
                f'<line x1="{px(x0):.2f}" y1="{py(slope * x0 + intercept):.2f}" '
                f'x2="{px(x1):.2f}" y2="{py(slope * x1 + intercept):.2f}" '
                f'stroke="gray" stroke-dasharray="4 3"/>'
            )
    return _text([*body, "</svg>"])


# ---------------------------------------------------------------------------
# growth


def _growth_result(report: GrowthReport) -> dict:
    result: dict = {
        "kind": report.kind,
        "certified": report.certified,
        "rate": report.rate,
        "degree": report.degree,
        "lengths": list(report.lengths),
        "evidence": {
            "subject": report.subject,
            "truncated": report.truncated,
            "chain_length": report.chain_length,
            "certificate": report.certificate.status if report.certificate else None,
            "offender": (
                " ".join(
                    report.certificate.endo.basis.symbol(t)
                    for t in report.certificate.offender
                )
                if report.certificate and report.certificate.offender
                else None
            ),
        },
    }
    if report.conjugator:
        result["evidence"]["conjugator"] = str(report.conjugator)
    return result


def cmd_growth(args) -> Report:
    source = _read_input(args.map)
    phi = parse_endomorphism(source)
    params = GrowthParams(iterations=args.iters, cap=args.cap)
    word = phi.basis.parse(args.word) if args.word else None
    report = classify_growth(phi, word, params)
    meta = _meta("growth", source, {"iters": args.iters, "cap": args.cap})
    steps = list(enumerate(report.lengths, start=1))

    def csv() -> str:
        rows = ["n,length", *(f"{i},{v}" for i, v in steps), f"# kind: {report.kind}"]
        return _csv(meta, rows)

    def svg() -> str:
        pts = [(float(i), float(v)) for i, v in steps]
        return _svg_plot(pts, f"growth {report.subject}: {report.kind}", meta)

    def text() -> str:
        lines = [
            f"subject: {report.subject}",
            f"kind: {report.kind}",
            f"certified: {report.certified}",
        ]
        if report.rate is not None:
            lines.append(f"rate: {report.rate:.6f}")
        if report.degree is not None:
            lines.append(f"degree: {report.degree}")
        lines.append("lengths: " + " ".join(str(v) for v in report.lengths))
        if report.truncated:
            lines.append("truncated: true")
        return _text(lines)

    code = 2 if report.kind == KIND_INCONCLUSIVE else 0
    return meta, _growth_result(report), code, {"csv": csv, "svg": svg, "text": text}


# ---------------------------------------------------------------------------
# fold


def _fold_payload(graph: StallingsGraph) -> dict:
    idx = graph.index()
    return {
        "vertices": graph.n_vertices,
        "edges": [
            {"from": u, "letter": graph.basis.symbol(x), "to": v}
            for u, x, v in sorted(graph.edges)
        ],
        "rank": graph.rank(),
        "index": idx,
        "free_basis": [str(w) for w in graph.free_basis()],
    }


def _dot_graph(graph: StallingsGraph, name: str) -> str:
    lines = [f"digraph {name} {{"]
    for u, x, v in sorted(graph.edges):
        lines.append(f'  {u} -> {v} [label="{graph.basis.symbol(x)}"];')
    lines.append("}")
    return _text(lines)


def cmd_fold(args) -> Report:
    b = make_basis(args.basis) if args.basis else _infer_basis(args.gens)
    gens = [b.parse(part) for part in args.gens.split(",") if part.strip()]
    graph = stallings_graph(b, gens)
    meta = _meta("fold", args.gens, {})
    result = _fold_payload(graph)
    edges = result["edges"]

    def csv() -> str:
        rows = (f"{e['from']},{e['letter']},{e['to']}" for e in edges)
        return _csv(meta, ["from,letter,to", *rows])

    def text() -> str:
        index = result["index"] if result["index"] is not None else "infinite"
        return _text([
            f"vertices: {result['vertices']}",
            "edges:",
            *(f"  {e['from']} --{e['letter']}--> {e['to']}" for e in edges),
            f"rank: {result['rank']}",
            f"index: {index}",
            "free basis: " + ", ".join(result["free_basis"]),
        ])

    return meta, result, 0, {"text": text, "dot": lambda: _dot_graph(graph, "fold"), "csv": csv}


def _infer_basis(gens_text: str) -> Basis:
    names: list[str] = []
    for token in gens_text.replace(",", " ").split():
        name = token.rstrip("'")
        name = name.split("^", 1)[0]
        if name and name not in names:
            names.append(name)
    if not names:
        raise WordSyntaxError("no generators given")
    return make_basis(names)


# ---------------------------------------------------------------------------
# torus


def cmd_torus(args) -> Report:
    source = _read_input(args.map)
    phi = certify_automorphism(parse_endomorphism(source))
    group = torus_group(phi)
    budgets = {"max_rounds": args.max_rounds, "max_vertices": args.max_vertices}
    meta = _meta("torus", source, budgets)
    if not args.gens:
        if args.emit == "graph":
            raise ValueError("--emit graph needs --gens")
        result = {
            "presentation": group.presentation(),
            "generators": list(group.extended_basis.names),
        }

        def plain() -> str:
            return _text([result["presentation"]])

        return meta, result, 0, {"presentation": plain, "text": plain}
    elems = [
        group.normalize(part) for part in args.gens.split(";") if part.strip()
    ]
    fi = fiber_intersection(
        group, elems, max_rounds=args.max_rounds, max_vertices=args.max_vertices
    )
    result = {
        "generators": [str(g) for g in elems],
        "intersection_basis": [str(w) for w in fi.graph.free_basis()],
        "rank": fi.graph.rank(),
        "t_step": fi.n,
        "s": str(fi.s) if fi.s is not None else None,
        "rounds": fi.rounds,
    }

    def text() -> str:
        return _text([
            "intersection basis: " + ", ".join(result["intersection_basis"]),
            f"rank: {result['rank']}",
            f"t step: {result['t_step']}",
            f"rounds: {result['rounds']}",
        ])

    views = {"graph": lambda: _dot_graph(fi.graph, "fiber"), "presentation": text, "text": text}
    return meta, result, 0, views


# ---------------------------------------------------------------------------
# split


def cmd_split(args) -> Report:
    source = _read_input(args.map)
    gog_text = _read_file(args.gog)
    phi = certify_automorphism(parse_endomorphism(source))
    gog, witness = parse_splitting(gog_text, phi.basis)
    validate_splitting(gog)
    meta = _meta("split", source + "\n" + gog_text, {})
    verified = verify_fixed(gog, phi, witness) if witness is not None else None
    result: dict = {"kind": gog.kind, "valid": True, "verified": verified}
    code = 0
    if args.induce:
        if witness is None:
            raise SplittingViolation("--induce needs a [witness] section")
        if not verified:
            raise SplittingViolation("witness does not certify the splitting as fixed")
        induced = induce_torus_splitting(gog, phi, witness, check=False)
        result["induced"] = {
            "kind": induced.kind,
            "vertices": [
                {
                    "name": v.name,
                    "label": v.label(),
                    "period": v.period,
                    "holonomy": str(v.holonomy),
                }
                for v in induced.vertices
            ],
            "edges": [
                {
                    "name": e.name,
                    "ends": [e.u, e.v],
                    "group": e.kind,
                    "label": e.label(),
                    "period": e.period,
                    "twist": e.twist,
                }
                for e in induced.edges
            ],
        }
    elif verified is False:
        code = 1

    def text() -> str:
        lines = [f"kind: {result['kind']}", "valid: true"]
        if verified is not None:
            lines.append(f"verified: {str(verified).lower()}")
        if "induced" in result:
            lines.append(f"induced kind: {result['induced']['kind']}")
            for v in result["induced"]["vertices"]:
                lines.append(f"  vertex {v['name']}: {v['label']}")
            for e in result["induced"]["edges"]:
                lines.append(
                    f"  edge {e['name']} ({e['ends'][0]} - {e['ends'][1]}): "
                    f"{e['group']} {e['label']}"
                )
        return _text(lines)

    return meta, result, code, {"text": text}


# ---------------------------------------------------------------------------
# hierarchy


def cmd_hierarchy(args) -> Report:
    text = _read_file(args.file)
    h = parse_hierarchy(text)
    validate_hierarchy(h)
    depth = hierarchy_depth(h)
    complete = is_complete(h)
    meta = _meta("hierarchy", text, {})
    code = 2 if complete is None else 0
    complete_str = "unknown" if complete is None else str(complete).lower()
    result = {"kind": h.kind, "depth": depth, "complete": complete_str}
    lines = [f"kind: {h.kind}", f"depth: {depth}", f"complete: {complete_str}"]
    return meta, result, code, {"text": lambda: _text(lines)}


# ---------------------------------------------------------------------------
# divergence


def cmd_divergence(args) -> Report:
    source = _read_input(args.map)
    phi = certify_automorphism(parse_endomorphism(source))
    group = torus_group(phi)
    report = divergence_estimate(
        group,
        args.radii,
        samples_per_radius=args.samples,
        seed=args.seed,
        max_vertices=args.max_vertices,
    )
    budgets = {
        "radii": ",".join(str(r) for r in report.radii),
        "samples": args.samples,
        "seed": args.seed,
        "max_vertices": args.max_vertices,
    }
    meta = _meta("divergence", source, budgets)
    result = {
        "exponent": report.exponent,
        "residual": report.residual,
        "low_confidence": report.low_confidence,
        "note": report.note,
        "mean_detour": [
            {"radius": r, "mean": m} for r, m in report.mean_detour
        ],
        "samples": [
            {
                "radius": s.radius,
                "p": str(s.p),
                "q": str(s.q),
                "distance": s.distance,
                "detour": s.detour,
                "reachable": s.reachable,
            }
            for s in report.samples
        ],
    }

    def csv() -> str:
        rows = ["radius,p,q,distance,detour,reachable"]
        for s in report.samples:
            det = s.detour if s.detour is not None else ""
            reachable = str(s.reachable).lower()
            rows.append(f'{s.radius},"{s.p}","{s.q}",{s.distance},{det},{reachable}')
        if report.exponent is not None:
            rows.append(f"# exponent: {report.exponent:.6f}")
            rows.append(f"# residual: {report.residual:.6f}")
        rows.append(f"# low_confidence: {str(report.low_confidence).lower()}")
        return _csv(meta, rows)

    def svg() -> str:
        pts = [
            (r, math.log(r), math.log(m))
            for r, m in report.mean_detour
            if m is not None and m > 0
        ]
        fit = None
        if report.exponent is not None:
            # the fitted line's intercept, over the radii the fit used
            ys = [y - report.exponent * x for r, x, y in pts if r >= FIT_MIN_RADIUS]
            fit = (report.exponent, sum(ys) / len(ys))
        return _svg_plot([(x, y) for _, x, y in pts], "divergence (log-log)", meta, fit)

    def text() -> str:
        lines = []
        for r, m in report.mean_detour:
            lines.append(f"r={r}: mean detour {m:.3f}" if m is not None else f"r={r}: -")
        if report.exponent is not None:
            lines.append(f"exponent: {report.exponent:.4f} (residual {report.residual:.4f})")
        lines.append(f"low confidence: {str(report.low_confidence).lower()}")
        lines.append(report.note)
        return _text(lines)

    return meta, result, 0, {"csv": csv, "svg": svg, "text": text}


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="fgrow", description="free-by-cyclic group toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("growth", help="classify growth of a map or word")
    p.add_argument("--map", required=True, help="map file or inline 'a -> a b; b -> a'")
    p.add_argument("--word", default=None)
    p.add_argument("--iters", type=_at_least(1), default=40)
    p.add_argument("--cap", type=_at_least(1), default=10**6)
    p.add_argument("--emit", choices=["json", "csv", "svg", "text"], default="json")

    p = sub.add_parser("fold", help="fold a subgroup graph")
    p.add_argument("--gens", required=True, help="comma-separated words")
    p.add_argument("--basis", default=None, help="space-separated generator names")
    p.add_argument("--emit", choices=["text", "json", "dot", "csv"], default="text")

    p = sub.add_parser("torus", help="mapping torus: presentation and fibers")
    p.add_argument("--map", required=True)
    p.add_argument("--gens", default=None, help="semicolon-separated elements")
    p.add_argument("--max-rounds", type=_at_least(0), default=64)
    p.add_argument("--max-vertices", type=_at_least(1), default=100_000)
    p.add_argument(
        "--emit",
        choices=["presentation", "graph", "json", "text"],
        default="presentation",
    )

    p = sub.add_parser("split", help="validate, verify, and induce splittings")
    p.add_argument("--map", required=True)
    p.add_argument("--gog", required=True, help="splitting file")
    p.add_argument("--induce", action="store_true")
    p.add_argument("--emit", choices=["json", "text"], default="json")

    p = sub.add_parser("hierarchy", help="depth and completeness of a hierarchy file")
    p.add_argument("--file", required=True)
    p.add_argument("--emit", choices=["json", "text"], default="json")

    p = sub.add_parser("divergence", help="empirical divergence probe")
    p.add_argument("--map", required=True)
    p.add_argument("--radii", type=_radii, default="4,6,8")
    p.add_argument("--samples", type=_at_least(1), default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=_at_least(1), default=500_000)
    p.add_argument("--emit", choices=["json", "csv", "svg", "text"], default="json")

    return parser


_COMMANDS: dict[str, Callable[[argparse.Namespace], Report]] = {
    "growth": cmd_growth,
    "fold": cmd_fold,
    "torus": cmd_torus,
    "split": cmd_split,
    "hierarchy": cmd_hierarchy,
    "divergence": cmd_divergence,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        meta, result, code, views = _COMMANDS[args.command](args)
        if args.emit == "json":
            out = _json({**meta, "result": result})
        else:
            out = views[args.emit]()
    except (BudgetExceededError, UnstabilizedError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
