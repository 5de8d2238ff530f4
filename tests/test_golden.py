"""Golden outputs of the graded pipelines on the corpora of criteria 6-9.

``render_golden`` takes the corpora of acceptance criteria 6-9 from
``corpora.py``, which the acceptance suite reads too, and sends every
map through each public graded entry point under its corpus weights,
plus one non-graded copy of every tenth map.
Each line holds what an entry point returned, rendered exactly (factor
chains, lifts, obstructions, certificates, inverses), or the class name
of the tamekit error it raised.  ``tests/golden/graded.txt`` is the
expected output; a change to it is a change of behaviour.  Regenerate
it only on purpose, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden/graded.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import tamekit
from tamekit import (
    FactorChain,
    LiftReport,
    Polynomial,
    PolynomialMap,
    TamekitError,
    WildnessCertificate,
    decompose_graded,
    decompose_plane_graded,
    decompose_positive,
    decompose_qhat_low,
    decompose_zero_cases,
    invert_graded,
    lift_plane_map,
    plane_residue_grading,
    restrict_to_plane,
    rewrite_liftable_chain,
    split_z_scaling,
    wild_witness,
    wildness_certificate,
)

from corpora import NONZERO, PIPELINES, lifting_maps, pipeline, pipeline_maps, scaling

GOLDEN = Path(__file__).parent / "golden" / "graded.txt"

u, v = Polynomial.variables(2)
x, y, z = Polynomial.variables(3)


def _render(out):
    if isinstance(out, FactorChain):
        return "chain[" + " ; ".join(f.render() for f in out.factors) + "]"
    if isinstance(out, PolynomialMap):
        return out.render()
    if isinstance(out, LiftReport):
        if out.liftable:
            return "lift " + out.lifted.render()
        ob = out.obstruction
        return f"obstructed {ob.kind.value} {ob.coordinate} {ob.exponents}"
    if isinstance(out, WildnessCertificate):
        return (
            f"{out.verdict} w={out.weights} q={out.q_hat} t={out.threshold} "
            f"scale={out.scale} at={out.violating_exponents}@{out.violating_degree}"
        )
    raise TypeError(f"no rendering for {out!r}")


def _call(fn, *args):
    try:
        return _render(fn(*args))
    except TamekitError as exc:
        return type(exc).__name__


def _plane_rewrite(m, weights):
    a, b, c = weights[0], weights[1], -weights[2]
    plane = restrict_to_plane(split_z_scaling(m, weights)[1])
    return rewrite_liftable_chain(
        decompose_plane_graded(plane, plane_residue_grading(a, b, c)), weights
    )


ENTRY_POINTS = (
    ("graded", decompose_graded),
    ("positive", decompose_positive),
    ("zero", decompose_zero_cases),
    ("qhat_low", decompose_qhat_low),
    ("certificate", wildness_certificate),
    ("rewrite", _plane_rewrite),
)


def _space_lines(tag, weights, maps):
    entry_points = ENTRY_POINTS + (("invert", invert_graded),)
    lines = []
    for k, m in enumerate(maps):
        cases = [("", m)]
        if k % 10 == 0:
            # a constant in a coordinate of nonzero weight breaks gradedness
            cases.append(("~", PolynomialMap((m.coords[0] + 1, *m.coords[1:]))))
        for mark, mm in cases:
            lines.append(f"{tag}#{k}{mark} {weights} map={mm.render()}")
            for name, fn in entry_points:
                lines.append(f"  {name}: {_call(fn, mm, weights)}")
    return lines


def _corpus_6():
    w = (7, 2, -3)
    plane_maps, space_maps = lifting_maps()
    lines = []
    for k, pm in enumerate(plane_maps):
        lines.append(f"lift#{k} {w}")
        lines.append(f"  lift: {_call(lift_plane_map, pm, w)}")
    for k, m in enumerate(space_maps):
        back = lift_plane_map(restrict_to_plane(m), w)
        lines.append(f"restrict#{k} {w}")
        lines.append(f"  restrict: {_call(restrict_to_plane, m)}")
        lines.append(f"  relift: {'input' if back.lifted == m else _render(back)}")
    lines.extend(_space_lines("space", w, space_maps[:50]))
    for pm, weights in (
        (PolynomialMap((u + v**2, v)), w),
        (PolynomialMap((v, u)), (5, 2, -3)),
        (PolynomialMap((u, v + 1)), (2, 1, -1)),
        (PolynomialMap((u + v**2, v)), (2, 1, -1)),
    ):
        lines.append(f"fixed {weights} plane={pm.render()}")
        lines.append(f"  lift: {_call(lift_plane_map, pm, weights)}")
    return lines


def _corpus_shapes():
    """Random factor chains in the five shapes with an explicit
    decomposition that criteria 6-9 leave out, then graded maps that are
    no automorphisms, one for each way the shape readers can reject."""

    def zpoly(rng):
        return sum(
            (rng.randrange(-2, 3) * z**k for k in range(rng.randrange(1, 4))),
            Polynomial.zero(3),
        )

    def factor_2_1_0(rng):
        kind = rng.randrange(4)
        if kind == 0:
            return scaling(rng)
        if kind == 1:
            return PolynomialMap((x + zpoly(rng) * y**2, y, z))
        if kind == 2:
            return PolynomialMap((x, y, rng.choice(NONZERO) * z + rng.randrange(-2, 3)))
        return PolynomialMap((x + rng.choice(NONZERO) * y**2, y, z))

    def factor_3_0_2(rng):
        kind = rng.randrange(3)
        c = rng.choice(NONZERO)
        if kind == 0:
            return scaling(rng)
        if kind == 1:
            return PolynomialMap((x, y + c * x**2 * z**3 + rng.randrange(-2, 3), z))
        return PolynomialMap((x, y + c * x**4 * z**6, z))

    def factor_1_0_0(rng):
        kind = rng.randrange(4)
        c = rng.choice(NONZERO)
        if kind == 0:
            return PolynomialMap((rng.choice(NONZERO) * x, y, z))
        if kind == 1:
            return PolynomialMap((x, y + c * z ** rng.randrange(0, 3), z))
        if kind == 2:
            return PolynomialMap((x, y, z + c * y ** rng.randrange(0, 3)))
        return PolynomialMap((x, z, y))

    def factor_2_1_2(rng):
        kind = rng.randrange(3)
        c = rng.choice(NONZERO)
        if kind == 0:
            return scaling(rng)
        if kind == 1:
            return PolynomialMap((x + c * y**2, y, z))
        return PolynomialMap((x + c * y**4 * z, y, z))

    def factor_3_2_2(rng):
        kind = rng.randrange(3)
        c = rng.choice(NONZERO)
        if kind == 0:
            return scaling(rng)
        if kind == 1:
            return PolynomialMap((x, y + c * x**2 * z**2, z))
        return PolynomialMap((x, y + c * x**4 * z**5, z))

    shapes = (
        ("zero210", (2, 1, 0), 1021, factor_2_1_0, (
            PolynomialMap((x * z, y, z)),
            PolynomialMap((x, y, z**2 + z)),
            PolynomialMap((x + y**2, y * z + y, z)),
        )),
        ("zero302", (3, 0, -2), 1302, factor_3_0_2, (
            PolynomialMap((x + x**3 * z**3, y, -z)),
            PolynomialMap((x + x**3 * z**3, y, x**2 * z**4 - z)),
            PolynomialMap((x, y, z + x**2 * z**4)),
            PolynomialMap((x, y**2 + x**2 * z**3, z)),
        )),
        ("zero100", (1, 0, 0), 1100, factor_1_0_0, (
            PolynomialMap((x * y + x, y, z)),
            PolynomialMap((x, y**2, z)),
            PolynomialMap((x, y + z**2, y**2 + z)),
        )),
        ("gcd212", (2, 1, -2), 1212, factor_2_1_2, (
            PolynomialMap((x, y + x * y * z, z + x * z**2)),
            PolynomialMap((x, y + x * y * z, z)),
            PolynomialMap((x + x**2 * z, y, z)),
            PolynomialMap((y**2, y, z)),
        )),
        ("gcd322", (3, 2, -2), 1322, factor_3_2_2, (
            PolynomialMap((x + x * y * z, y, z + y * z**2)),
            PolynomialMap((x + x * y * z, y, z)),
            PolynomialMap((x, y + y**2 * z, z)),
            PolynomialMap((x, x**2 * z**2, z)),
        )),
    )
    lines = []
    for tag, weights, seed, factor_fn, rejected in shapes:
        maps = pipeline_maps(seed, factor_fn, count=40) + list(rejected)
        lines.extend(_space_lines(tag, weights, maps))
    return lines


def _witness_lines():
    lines = []
    for weights in ((7, 2, -3), (2, -3, 7), (11, 3, -5), (0, 0, 0)):
        wit = wild_witness(weights)
        lines.append(f"witness {weights} map={wit.map.render()}")
        lines.append(f"  inverse: {wit.inverse.render()}")
        if wit.certificate is not None:
            lines.append(f"  certificate: {_render(wit.certificate)}")
        for name, fn in ENTRY_POINTS:
            lines.append(f"  {name}: {_call(fn, wit.map, weights)}")
    return lines


def render_golden():
    lines = _corpus_6()
    for tag in PIPELINES:
        weights, maps = pipeline(tag)
        lines.extend(_space_lines(tag, weights, maps))
    lines += _corpus_shapes() + _witness_lines()
    return "\n".join(lines) + "\n"


def test_graded_outputs_match_golden():
    assert render_golden() == GOLDEN.read_text()


def test_graded_outputs_match_golden_under_optimize_flag():
    # python -O strips asserts; the answers must not depend on them
    src = str(Path(tamekit.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-O", __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert out.stdout == GOLDEN.read_text()


if __name__ == "__main__":
    sys.stdout.write(render_golden())
