"""Command-line interface.

Maps are given inline as '(f, g)' or '(f, g, h)', as a JSON document
'{"vars": ..., "coords": ..., "grading": ...}', or as '@path' naming a
file that holds either form.  A document's embedded grading is used
when no --grading flag is given; its modulus, if any, is honoured by a
plane decompose and refused (exit 64) by the commands that need exact
weights.  lift reads its weights (a, b, -c) from --grading alone, since
a plane document holds two.  Every command accepts --json.

Malformed input exits 64, and so does input that is over-deep or
over-long: parentheses nested past 100 levels, JSON nested past the
interpreter's recursion limit, an integer literal past its limit on
decimal digits, or an '@file' that is not UTF-8.

Exit codes:
    0   success (including "true" answers and inconclusive certificates)
    1   not an automorphism (including a false verify)
    2   not graded for the given weights
    3   not liftable
    4   certified wild
    5   automorphism status undecided
    64  usage, parse, or input-shape problems
    70  internal error: a bug in tamekit, not a verdict on the input
"""

import argparse
import json
import sys
import traceback

from .errors import (
    CertifiedWildMap,
    InvariantViolation,
    NotAnAutomorphism,
    NotGraded,
    ParseError,
    TamekitError,
    WildAdmittingUndecided,
    WrongShape,
)
from .grading import Grading, plane_residue_grading
from .jung import (
    decompose_plane,
    decompose_plane_graded,
    invert_plane,
    is_plane_automorphism,
)
from .maps import classify_map, compose_chain, verify_inverse_pair
from .named import example_names, get_example
from .newton import newton_polygon, polygon_area
from .parsing import MapDocument, parse_map, parse_polynomial, parse_weights
from .space import (
    WildnessCertificate,
    classify_grading,
    decompose_graded,
    invert_graded,
    lift_plane_map,
    restrict_to_plane,
    wild_witness,
    wildness_certificate,
)


def _load_map(text):
    """A map argument plus its JSON document, when it came as one."""
    if text.startswith("@"):
        try:
            with open(text[1:], encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{text[1:]} is not UTF-8 text: {exc}") from None
    stripped = text.strip()
    if stripped.startswith("{"):
        doc = MapDocument.from_json(stripped)
        return doc.to_map(), doc
    return parse_map(stripped), None


def _weights_for(args, doc, default=(0, 0, 0)):
    """Exact weights: --grading wins; the document grading is the fallback,
    and ``default`` applies when neither gives any.

    A document grading with a modulus is refused, not read without it.
    """
    if args.grading:
        return parse_weights(args.grading)
    if doc is None or doc.weights is None:
        return default
    if doc.modulus is not None:
        raise ParseError(
            f"this command needs exact weights, but the document grading "
            f"has modulus {doc.modulus}"
        )
    return doc.weights


def _plane_grading(args, doc):
    """The grading of a plane decompose, or None for none.

    Two --grading weights give an exact plane grading; three weights
    (a, b, -c) give the residue grading modulo c that three-variable
    gradedness restricts to on the slice z = 1.  Without the flag the
    document grading applies, modulus included.
    """
    if not args.grading:
        return None if doc is None else doc.grading()
    weights = parse_weights(args.grading)
    if len(weights) == 2:
        return Grading(weights)
    if len(weights) == 3:
        if weights[2] >= 0:
            raise WrongShape(
                f"plane residue weights look like (a, b, -c), got {weights}"
            )
        return plane_residue_grading(weights[0], weights[1], -weights[2])
    raise ParseError(f"expected 2 or 3 weights, got {len(weights)}")


def _emit(args, rows, code=0):
    """Print each row's text line, or with --json one object merged from
    the rows' fields; returns the exit code.

    A row is (line, fields): a text line, or None for a fact that only
    the JSON states, and the dict of JSON fields that the line stands for.
    """
    if args.json:
        payload = {}
        for _, fields in rows:
            payload.update(fields)
        print(json.dumps(payload, indent=2))
    else:
        for line, _ in rows:
            if line is not None:
                print(line)
    return code


def _bool(flag):
    return "true" if flag else "false"


def _map_rows(m):
    text = m.render()
    return [(text, {"map": text})]


def _pair_rows(m, inverse):
    """The aligned map and inverse lines of witness and example."""
    pair = (("map", m.render()), ("inverse", inverse.render()))
    return [(f"{key + ':':<9}{text}", {key: text}) for key, text in pair]


def _certificate_rows(cert):
    fields = {
        "certified": cert.certified,
        "weights": cert.weights,
        "q_hat": cert.q_hat,
        "threshold": cert.threshold,
    }
    if not cert.certified:
        return [(
            "inconclusive: every low-degree monomial test passed "
            f"(threshold {cert.threshold})",
            {"certificate": fields},
        )]
    fields["violating_exponents"] = cert.violating_exponents
    fields["violating_degree"] = cert.violating_degree
    i, j = cert.violating_exponents
    return [
        ("certified wild", {"certificate": fields}),
        (f"violating monomial: u^{i}*v^{j} at total degree "
         f"{cert.violating_degree}, below the tame threshold {cert.threshold}", {}),
    ]


# ---------------------------------------------------------------------------
# commands

def _cmd_verify(args):
    m, doc = _load_map(args.map)
    if args.inverse is not None:
        ok = verify_inverse_pair(m, _load_map(args.inverse)[0])
        return _emit(args, [(f"inverse pair: {_bool(ok)}", {"inverse_pair": ok})],
                     0 if ok else 1)
    if m.arity == 2:
        ok = is_plane_automorphism(m)
        return _emit(args, [(f"automorphism: {_bool(ok)}", {"automorphism": ok})],
                     0 if ok else 1)
    try:
        result = decompose_graded(m, _weights_for(args, doc))
    except NotAnAutomorphism as exc:
        return _emit(args, [(
            f"automorphism: false ({exc})", {"automorphism": False, "reason": str(exc)}
        )], 1)
    if isinstance(result, WildnessCertificate):
        return _emit(args, [(
            "automorphism: true (certified wild)", {"automorphism": True, "wild": True}
        )])
    n = len(result.factors)
    return _emit(args, [(
        f"automorphism: true (tame, {n} factors)",
        {"automorphism": True, "wild": False, "factors": n},
    )])


def _cmd_compose(args):
    return _emit(args, _map_rows(compose_chain([_load_map(t)[0] for t in args.maps])))


def _cmd_invert(args):
    m, doc = _load_map(args.map)
    if m.arity == 2:
        return _emit(args, _map_rows(invert_plane(m)))
    return _emit(args, _map_rows(invert_graded(m, _weights_for(args, doc))))


def _cmd_decompose(args):
    m, doc = _load_map(args.map)
    steps = [] if args.trace_svg else None
    trace = None if steps is None else (lambda cur, area: steps.append((cur, area)))
    if m.arity == 2:
        grading = _plane_grading(args, doc)
        if grading is None:
            chain = decompose_plane(m, trace=trace)
        else:
            chain = decompose_plane_graded(m, grading, trace=trace)
    else:
        if args.trace_svg:
            raise WrongShape("--trace-svg needs a two-variable map")
        chain = decompose_graded(m, _weights_for(args, doc))
        if isinstance(chain, WildnessCertificate):
            return _emit(args, _certificate_rows(chain), 4)
    if args.trace_svg:
        _write_svg(args.trace_svg, [
            (cur.coords[0], f"step {k}: area {area}")
            for k, (cur, area) in enumerate(steps)
        ])
    rendered = [f.render() for f in chain.factors]
    width = max(map(len, rendered), default=0)
    lines = [
        f"{r:<{width}}  # {note}" if note else r
        for r, note in zip(rendered, chain.notes)
    ]
    return _emit(args, [(None, {
        "factors": rendered,
        "classes": [classify_map(f).name.lower() for f in chain.factors],
        "notes": chain.notes,
    })] + [(line, {}) for line in lines or ["identity (no factors)"]])


def _cmd_classify(args):
    cls = classify_grading((args.a, args.b, args.c))
    facts = [
        ("weights", cls.weights),
        ("normalized", cls.normalized.weights),
        ("verdict", cls.verdict.value),
        ("reason", cls.reason.value),
    ]
    if cls.zero_shape is not None:
        facts.append(("zero shape", cls.zero_shape.value))
    rows = [(f"{key}: {value}", {key.replace(" ", "_"): value}) for key, value in facts]
    if cls.q_hat is not None:
        rows.append((
            f"q-hat: {cls.q_hat}  l-hat: {cls.l_hat}",
            {"q_hat": cls.q_hat, "l_hat": cls.l_hat},
        ))
    if cls.witness_q is not None:
        rows.append((
            f"witness exponents: a = {cls.witness_q}*b + {cls.witness_p}*c",
            {"witness_q": cls.witness_q, "witness_p": cls.witness_p},
        ))
    return _emit(args, rows)


def _cmd_witness(args):
    wit = wild_witness((args.a, args.b, args.c))
    checked = wit.verify() if args.check else None
    rows = _pair_rows(wit.map, wit.inverse)
    if wit.certificate is None:
        rows.append((
            "certified by construction (inverse pair checked literally)",
            {"certificate": None},
        ))
    else:
        rows += _certificate_rows(wit.certificate)
    if checked is not None:
        rows.append((f"verified: {_bool(checked)}", {"verified": checked}))
    return _emit(args, rows, 0 if checked in (None, True) else 1)


def _cmd_lift(args):
    m, doc = _load_map(args.map)
    if not args.grading:
        # a plane document holds two weights, never lift's (a, b, -c)
        mod = "" if doc is None or doc.modulus is None else f" with modulus {doc.modulus}"
        held = "" if doc is None or doc.weights is None else (
            f"; the document's plane grading{mod} is not read"
        )
        raise ParseError(f"lift needs --grading a,b,-c{held}")
    report = lift_plane_map(m, parse_weights(args.grading))
    if report.liftable:
        return _emit(args, [(None, {"liftable": True})] + _map_rows(report.lifted))
    ob = report.obstruction
    return _emit(args, [(
        f"not liftable: {ob.kind.value} at exponents {ob.exponents} "
        f"in coordinate {ob.coordinate}",
        {"liftable": False, "obstruction": {
            "kind": ob.kind.value,
            "coordinate": ob.coordinate,
            "exponents": ob.exponents,
        }},
    )], 3)


def _cmd_restrict(args):
    return _emit(args, _map_rows(restrict_to_plane(_load_map(args.map)[0])))


def _cmd_certify_wild(args):
    m, doc = _load_map(args.map)
    weights = _weights_for(args, doc, None)
    if weights is None:
        raise ParseError("certify-wild needs --grading a,b,c")
    cert = wildness_certificate(m, weights)
    return _emit(args, _certificate_rows(cert), 4 if cert.certified else 0)


def _cmd_polygon(args):
    poly = parse_polynomial(args.polynomial, arity=2)
    hull = newton_polygon(poly)
    area = polygon_area(hull)
    rows = [
        ("vertices: " + " ".join(f"({i},{j})" for i, j in hull), {"vertices": hull}),
        (f"area: {area}", {"area": str(area)}),
    ]
    if args.svg:
        _write_svg(args.svg, [(poly, f"area {area}")])
        rows.append((f"wrote {args.svg}", {}))
    return _emit(args, rows)


def _cmd_example(args):
    if args.name is None:
        names = example_names()
        return _emit(args, [(None, {"examples": names})] + [(n, {}) for n in names])
    ex = get_example(args.name)
    return _emit(args, [(None, {"name": ex.name})] + _pair_rows(ex.map, ex.inverse) + [
        (f"notes:   {ex.notes}", {"notes": ex.notes}),
    ])


# ---------------------------------------------------------------------------
# SVG output
#
# Hand-rolled SVG 1.1: a panel per polygon showing the lattice grid, the
# convex hull, and the support points.  Output depends only on the input
# polynomials, so files are reproducible byte for byte.

_SVG_GRID = "#d8d8d8"
_SVG_HULL = "#e8912d"
_SVG_DOT = "#1f6feb"


def _panel(f, label, left, top):
    support = sorted(f.terms)
    hull = newton_polygon(f)
    extent = max([1] + [max(e) for e in support] + [max(p) for p in hull])
    cell = max(6, min(24, 360 // extent))
    pad = 14
    side = extent * cell + 2 * pad

    def px(i):
        return left + pad + i * cell

    def py(j):
        return top + pad + (extent - j) * cell

    parts = [
        f'<rect x="{left}" y="{top}" width="{side}" height="{side}" '
        'fill="#ffffff" stroke="#999999"/>'
    ]
    for k in range(extent + 1):
        parts.append(
            f'<line x1="{px(0)}" y1="{py(k)}" x2="{px(extent)}" y2="{py(k)}" '
            f'stroke="{_SVG_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{px(k)}" y1="{py(0)}" x2="{px(k)}" y2="{py(extent)}" '
            f'stroke="{_SVG_GRID}" stroke-width="1"/>'
        )
    points = " ".join(f"{px(i)},{py(j)}" for i, j in hull)
    if len(hull) >= 3:
        parts.append(
            f'<polygon points="{points}" fill="{_SVG_HULL}" fill-opacity="0.25" '
            f'stroke="{_SVG_HULL}" stroke-width="2"/>'
        )
    elif len(hull) == 2:
        parts.append(
            f'<polyline points="{points}" fill="none" '
            f'stroke="{_SVG_HULL}" stroke-width="2"/>'
        )
    for i, j in support:
        parts.append(f'<circle cx="{px(i)}" cy="{py(j)}" r="3" fill="{_SVG_DOT}"/>')
    parts.append(
        f'<text x="{left}" y="{top + side + 14}" font-family="monospace" '
        f'font-size="12" fill="#333333">{label}</text>'
    )
    return parts, side, side + 20


def _write_svg(path, panel_inputs):
    gap = 12
    fragments = []
    left = gap
    height = 0
    for f, label in panel_inputs:
        parts, width, used_height = _panel(f, label, left, gap)
        fragments.extend(parts)
        left += width + gap
        height = max(height, used_height)
    total_w, total_h = left, height + 2 * gap
    body = "\n".join(fragments)
    document = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{total_h}" '
        f'viewBox="0 0 {total_w} {total_h}">\n'
        f'<rect width="{total_w}" height="{total_h}" fill="#ffffff"/>\n'
        f"{body}\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)


# ---------------------------------------------------------------------------
# parser and dispatch

_MAP = ("map", {"help": "inline '(f, g[, h])', JSON '{...}', or '@file'"})
_GRADING = ("--grading", {"metavar": "W", "help": "comma-separated weights, e.g. 7,2,-3"})
_WEIGHTS = (("a", {"type": int}), ("b", {"type": int}), ("c", {"type": int}))
_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})

# (name, help, arguments); every command also takes --json, and its
# handler is _cmd_<name>
_COMMANDS = (
    ("verify", "inverse-pair or automorphism check",
     (_MAP, ("inverse", {"nargs": "?", "help": "candidate inverse map"}), _GRADING)),
    ("compose", "compose maps, applied right to left",
     (("maps", {"nargs": "+", "help": "maps, leftmost applied last"}),)),
    ("invert", "exact inverse via factorization", (_MAP, _GRADING)),
    ("decompose", "factor into elementary and linear maps", (_MAP, ("--trace-svg", {
        "metavar": "PATH",
        "help": "write the plane descent trace as SVG (two-variable maps)"}), _GRADING)),
    ("classify", "does a grading admit wild maps?", _WEIGHTS),
    ("witness", "build a graded-wild automorphism", _WEIGHTS + (
        ("--check", {"action": "store_true", "help": "run the full verification"}),)),
    ("lift", "lift a plane map to three variables", (_MAP, _GRADING)),
    ("restrict", "restrict to the slice z = 1", (_MAP,)),
    ("certify-wild", "low-degree monomial test for wildness", (_MAP, _GRADING)),
    ("polygon", "Newton polygon of a plane polynomial", (
        ("polynomial", {"help": "inline polynomial in two variables"}),
        ("--svg", {"metavar": "PATH", "help": "write the polygon as SVG"}))),
    ("example", "named example maps",
     (("name", {"nargs": "?", "help": "example name; omit to list"}),)),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tamekit",
        description="Exact tools for graded polynomial automorphisms.",
        epilog="Exit codes:" + __doc__.split("Exit codes:")[1],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, help_text, arguments in _COMMANDS:
        sub = commands.add_parser(name, help=help_text)
        for flag, options in arguments + (_JSON,):
            sub.add_argument(flag, **options)
        # looked up per build, so a replaced handler is the one that runs
        sub.set_defaults(handler=globals()["_cmd_" + name.replace("-", "_")])
    return parser


_EXIT_CODES = (
    (NotAnAutomorphism, 1),
    (NotGraded, 2),
    (CertifiedWildMap, 4),
    (WildAdmittingUndecided, 5),
)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 64
    try:
        return args.handler(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 70
    except TamekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 64
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except Exception as exc:  # a bug; exit 1 would read "not an automorphism"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 70


if __name__ == "__main__":
    sys.exit(main())
