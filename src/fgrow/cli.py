"""Command-line front end.

Exit codes are scripting contract: 0 success, 1 domain errors (bad
input, non-surjective map, failed verification), 2 budget or
inconclusive outcomes.  Output is byte-identical for identical inputs,
flags, and seed: reports embed the input hash and budgets, JSON is
emitted with sorted keys, and SVG is hand-built with fixed number
formatting.  Budgets must be positive (``--max-rounds`` may be 0).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from typing import Callable, Sequence

from .automorphisms import (
    NotInvariantError,
    NotSurjectiveError,
    certify_automorphism,
    parse_endomorphism,
)
from .folding import StallingsGraph, stallings_graph
from .geometry import BudgetExceededError, DivergenceReport, divergence_estimate
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
from .words import (
    Basis,
    BasisMismatchError,
    VerificationError,
    WordSyntaxError,
    basis as make_basis,
)

SCHEMA = 2


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


def _meta_lines(meta: dict) -> list[str]:
    lines = [f"# schema: {meta['schema']}", f"# command: {meta['command']}"]
    lines.append(f"# input_sha256: {meta['input_sha256']}")
    for key in sorted(meta["budgets"]):
        lines.append(f"# {key}: {meta['budgets'][key]}")
    return lines


def _svg_doc(body: list[str], width: int = 480, height: int = 320) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _svg_plot(
    points: list[tuple[float, float]],
    title: str,
    meta: dict,
    fit: tuple[float, float] | None = None,
) -> str:
    width, height, pad = 480, 320, 40
    body = [f"<title>{title}</title>"]
    body.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    body.append(
        f'<text x="{pad}" y="20" font-size="12" font-family="monospace">{title}</text>'
    )
    body.append(
        f'<text x="{pad}" y="{height - 8}" font-size="9" font-family="monospace">'
        f'input {meta["input_sha256"][:16]}</text>'
    )
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

        body.append(
            f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
            f'y2="{height - pad}" stroke="black"/>'
        )
        body.append(
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>'
        )
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in points)
        body.append(
            f'<polyline points="{coords}" fill="none" stroke="steelblue" stroke-width="1.5"/>'
        )
        for x, y in points:
            body.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="crimson"/>'
            )
        if fit is not None:
            slope, intercept = fit
            body.append(
                f'<line x1="{px(x0):.2f}" y1="{py(slope * x0 + intercept):.2f}" '
                f'x2="{px(x1):.2f}" y2="{py(slope * x1 + intercept):.2f}" '
                f'stroke="gray" stroke-dasharray="4 3"/>'
            )
    return _svg_doc(body, width, height)


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


def cmd_growth(args) -> tuple[str, int]:
    source = _read_input(args.map)
    phi = parse_endomorphism(source)
    params = GrowthParams(iterations=args.iters, cap=args.cap)
    word = phi.basis.parse(args.word) if args.word else None
    report = classify_growth(phi, word, params)
    meta = _meta("growth", source, {"iters": args.iters, "cap": args.cap})
    code = 2 if report.kind == KIND_INCONCLUSIVE else 0
    if args.emit == "json":
        return _json({**meta, "result": _growth_result(report)}), code
    if args.emit == "csv":
        lines = _meta_lines(meta)
        lines.append("n,length")
        lines.extend(f"{i},{v}" for i, v in enumerate(report.lengths, start=1))
        lines.append(f"# kind: {report.kind}")
        return "\n".join(lines) + "\n", code
    if args.emit == "svg":
        pts = [(float(i), float(v)) for i, v in enumerate(report.lengths, start=1)]
        title = f"growth {report.subject}: {report.kind}"
        return _svg_plot(pts, title, meta), code
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
    return "\n".join(lines) + "\n", code


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
    return "\n".join(lines) + "\n"


def cmd_fold(args) -> tuple[str, int]:
    b = make_basis(args.basis) if args.basis else _infer_basis(args.gens)
    gens = [b.parse(part) for part in args.gens.split(",") if part.strip()]
    graph = stallings_graph(b, gens)
    meta = _meta("fold", args.gens, {})
    if args.emit == "json":
        return _json({**meta, "result": _fold_payload(graph)}), 0
    if args.emit == "dot":
        return _dot_graph(graph, "fold"), 0
    if args.emit == "csv":
        lines = _meta_lines(meta)
        lines.append("from,letter,to")
        lines.extend(
            f"{u},{graph.basis.symbol(x)},{v}" for u, x, v in sorted(graph.edges)
        )
        return "\n".join(lines) + "\n", 0
    payload = _fold_payload(graph)
    lines = [f"vertices: {payload['vertices']}"]
    lines.append("edges:")
    lines.extend(
        f"  {e['from']} --{e['letter']}--> {e['to']}" for e in payload["edges"]
    )
    lines.append(f"rank: {payload['rank']}")
    lines.append(
        f"index: {payload['index'] if payload['index'] is not None else 'infinite'}"
    )
    lines.append("free basis: " + ", ".join(payload["free_basis"]))
    return "\n".join(lines) + "\n", 0


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


def cmd_torus(args) -> tuple[str, int]:
    source = _read_input(args.map)
    phi = certify_automorphism(parse_endomorphism(source))
    group = torus_group(phi)
    budgets = {"max_rounds": args.max_rounds, "max_vertices": args.max_vertices}
    meta = _meta("torus", source, budgets)
    if not args.gens:
        if args.emit in ("presentation", "text"):
            return group.presentation() + "\n", 0
        if args.emit == "json":
            return (
                _json(
                    {
                        **meta,
                        "result": {
                            "presentation": group.presentation(),
                            "generators": list(group.extended_basis.names),
                        },
                    }
                ),
                0,
            )
        raise ValueError("--emit graph needs --gens")
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
    if args.emit == "json":
        return _json({**meta, "result": result}), 0
    if args.emit == "graph":
        return _dot_graph(fi.graph, "fiber"), 0
    lines = [
        "intersection basis: " + ", ".join(result["intersection_basis"]),
        f"rank: {result['rank']}",
        f"t step: {result['t_step']}",
        f"rounds: {result['rounds']}",
    ]
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# split


def cmd_split(args) -> tuple[str, int]:
    source = _read_input(args.map)
    gog_text = _read_file(args.gog)
    phi = certify_automorphism(parse_endomorphism(source))
    gog, witness = parse_splitting(gog_text, phi.basis)
    validate_splitting(gog)
    meta = _meta("split", source + "\n" + gog_text, {})
    verified = None
    if witness is not None:
        verified = verify_fixed(gog, phi, witness)
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
    if args.emit == "json":
        return _json({**meta, "result": result}), code
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
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# hierarchy


def cmd_hierarchy(args) -> tuple[str, int]:
    text = _read_file(args.file)
    h = parse_hierarchy(text)
    validate_hierarchy(h)
    depth = hierarchy_depth(h)
    complete = is_complete(h)
    meta = _meta("hierarchy", text, {})
    code = 2 if complete is None else 0
    complete_str = "unknown" if complete is None else str(complete).lower()
    if args.emit == "json":
        return (
            _json(
                {
                    **meta,
                    "result": {
                        "kind": h.kind,
                        "depth": depth,
                        "complete": complete_str,
                    },
                }
            ),
            code,
        )
    lines = [f"kind: {h.kind}", f"depth: {depth}", f"complete: {complete_str}"]
    return "\n".join(lines) + "\n", code


# ---------------------------------------------------------------------------
# divergence


def _divergence_rows(report: DivergenceReport) -> list[str]:
    rows = ["radius,p,q,distance,detour,reachable"]
    for s in report.samples:
        det = s.detour if s.detour is not None else ""
        rows.append(
            f'{s.radius},"{s.p}","{s.q}",{s.distance},{det},{str(s.reachable).lower()}'
        )
    return rows


def cmd_divergence(args) -> tuple[str, int]:
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
    if args.emit == "json":
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
        return _json({**meta, "result": result}), 0
    if args.emit == "csv":
        lines = _meta_lines(meta)
        lines.extend(_divergence_rows(report))
        if report.exponent is not None:
            lines.append(f"# exponent: {report.exponent:.6f}")
            lines.append(f"# residual: {report.residual:.6f}")
        lines.append(f"# low_confidence: {str(report.low_confidence).lower()}")
        return "\n".join(lines) + "\n", 0
    if args.emit == "svg":
        pts = [
            (math.log(r), math.log(m))
            for r, m in report.mean_detour
            if m is not None and m > 0
        ]
        fit = None
        if report.exponent is not None and pts:
            ys = [y - report.exponent * x for x, y in pts]
            fit = (report.exponent, sum(ys) / len(ys))
        title = "divergence (log-log)"
        return _svg_plot(pts, title, meta, fit), 0
    lines = []
    for r, m in report.mean_detour:
        lines.append(f"r={r}: mean detour {m:.3f}" if m is not None else f"r={r}: -")
    if report.exponent is not None:
        lines.append(f"exponent: {report.exponent:.4f} (residual {report.residual:.4f})")
    lines.append(f"low confidence: {str(report.low_confidence).lower()}")
    lines.append(report.note)
    return "\n".join(lines) + "\n", 0


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


_COMMANDS: dict[str, Callable] = {
    "growth": cmd_growth,
    "fold": cmd_fold,
    "torus": cmd_torus,
    "split": cmd_split,
    "hierarchy": cmd_hierarchy,
    "divergence": cmd_divergence,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = _COMMANDS[args.command](args)
    except (BudgetExceededError, UnstabilizedError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (
        WordSyntaxError,
        BasisMismatchError,
        NotSurjectiveError,
        NotInvariantError,
        SplittingViolation,
        VerificationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
