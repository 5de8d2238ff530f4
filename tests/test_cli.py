"""Command-line interface: outputs and the exit-code contract."""

import argparse
import json
import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import tamekit
from tamekit import cli
from tamekit.cli import main
from tamekit.errors import InvariantViolation
from tamekit.maps import PolynomialMap, compose_chain, verify_inverse_pair
from tamekit.parsing import parse_map
from tamekit.poly import Polynomial
from tamekit.space import nagata_pair, wild_witness

x, y, z = Polynomial.variables(3)

WITNESS = wild_witness((7, 2, -3)).map.render()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run(capsys, "classify", "7", "2", "-3")
    assert code == 0
    assert "verdict: wild-admitting" in out
    assert "reason: q-hat-at-least-two" in out
    assert "q-hat: 2  l-hat: 2" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "5", "2", "-3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "tame-only"
    assert data["reason"] == "q-hat-one"
    assert data["normalized"] == [5, 2, -3]


def test_classify_zero_shape(capsys):
    code, out, _ = run(capsys, "classify", "1", "1", "0", "--json")
    assert code == 0
    assert json.loads(out)["zero_shape"] == "equal-positive-pair"


def test_verify_pair(capsys):
    code, out, _ = run(capsys, "verify", "(x + y^2, y)", "(x - y^2, y)")
    assert code == 0 and "inverse pair: true" in out
    code, out, _ = run(capsys, "verify", "(x + y^2, y)", "(x + y^2, y)")
    assert code == 1 and "inverse pair: false" in out


def test_verify_plane_single(capsys):
    code, out, _ = run(capsys, "verify", "(x + y^2, y)")
    assert code == 0 and "automorphism: true" in out
    code, out, _ = run(capsys, "verify", "(x + y^2, x + y^2)")
    assert code == 1 and "automorphism: false" in out


def test_verify_three_variable(capsys):
    code, out, _ = run(
        capsys, "verify", "(x + y^2*z, y, z)", "--grading", "1,1,-1"
    )
    assert code == 0 and "tame" in out
    code, out, _ = run(capsys, "verify", WITNESS, "--grading", "7,2,-3")
    assert code == 0 and "certified wild" in out
    code, out, _ = run(capsys, "verify", "(2*x, y, z^2)", "--grading", "1,1,0")
    assert code == 1 and "automorphism: false" in out


@pytest.mark.parametrize(
    "text, count, words",
    [("(x, y, z)", 0, "0 factors"), ("(y, x, z)", 1, "1 factor"),
     ("(2*x + y^2*z, y, z)", 2, "2 factors")],
)
def test_verify_counts_factors_in_words(capsys, text, count, words):
    code, out, _ = run(capsys, "verify", text, "--grading", "1,1,-1")
    assert code == 0 and out == f"automorphism: true (tame, {words})\n"
    code, out, _ = run(capsys, "verify", text, "--grading", "1,1,-1", "--json")
    assert code == 0 and json.loads(out)["factors"] == count


def test_verify_trivial_grading_rejects_a_nonconstant_jacobian(capsys):
    # the Jacobian 2x rules the map out before the shape router runs
    code, out, _ = run(capsys, "verify", "(x^2, y, z)")
    assert code == 1 and "automorphism: false" in out


@pytest.mark.parametrize("command", ["verify", "decompose", "invert"])
def test_certified_non_automorphism_exits_1(capsys, command):
    # the degree test certifies this graded map, but J = 1 + 5y^3z^2 + 4y^6z^4,
    # and the plane descent rejects its restriction
    text = "(x + x*y^3*z^2, y + y^4*z^2, z)"
    code, out, err = run(capsys, command, text, "--grading", "7,2,-3")
    assert code == 1 and "rules the map out" in out + err


def test_verify_undecided(capsys):
    # no grading and no recognizable shape: the trivial-grading router
    # refuses to guess
    code, _, err = run(capsys, "verify", WITNESS)
    assert code == 5
    assert "error:" in err


def test_compose(capsys):
    code, out, _ = run(capsys, "compose", "(x + y^2, y)", "(x, y + x)")
    assert code == 0
    assert parse_map(out.strip()) == parse_map(
        "(x^2 + 2*x*y + y^2 + x, x + y)"
    )


def test_compose_json(capsys):
    code, out, _ = run(capsys, "compose", "(x, y, z)", "(y, x, z)", "--json")
    assert code == 0
    assert json.loads(out)["map"] == "(y, x, z)"


def test_invert_plane(capsys):
    code, out, _ = run(capsys, "invert", "(x + y^2, y)")
    assert code == 0
    assert out.strip() == "(-y^2 + x, y)"


def test_invert_graded(capsys):
    code, out, _ = run(
        capsys, "invert", "(x + (y + x*z)^4*z, y + x*z, z)", "--grading", "5,2,-3"
    )
    assert code == 0
    inverse = parse_map(out.strip())
    m = parse_map("(x + (y + x*z)^4*z, y + x*z, z)")
    assert verify_inverse_pair(m, inverse)


def test_invert_certified_wild(capsys):
    code, _, err = run(capsys, "invert", WITNESS, "--grading", "7,2,-3")
    assert code == 4
    assert "error:" in err


def test_decompose_plane(capsys):
    code, out, _ = run(capsys, "decompose", "(x + (y + x^2)^2, y + x^2)")
    assert code == 0
    lines = out.strip().splitlines()
    factors = [parse_map(line.split("#")[0].strip()) for line in lines]
    assert compose_chain(factors) == parse_map("(x + (y + x^2)^2, y + x^2)")


def test_decompose_graded_json(capsys):
    code, out, _ = run(
        capsys, "decompose", "(x + y^2*z, y, 5*z)", "--grading", "1,1,-1", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["factors"] == ["(x, y, 5*z)", "(y^2*z + x, y, z)"]
    assert data["classes"] == ["linear", "elementary"]


def test_decompose_wild_exits_4(capsys):
    code, out, _ = run(capsys, "decompose", WITNESS, "--grading", "7,2,-3")
    assert code == 4
    assert "certified wild" in out


def test_decompose_not_graded_exits_2(capsys):
    code, _, err = run(
        capsys, "decompose", "(x + z, y, z)", "--grading", "1,1,-2"
    )
    assert code == 2 and "error:" in err


def test_decompose_plane_with_exact_weights(capsys):
    code, out, _ = run(capsys, "decompose", "(3*x + y^2, 2*y)", "--grading", "2,1", "--json")
    assert code == 0
    assert json.loads(out)["factors"] == ["(3*x, 2*y)", "(1/3*y^2 + x, y)"]


@pytest.mark.parametrize(
    "weights, message",
    [("7,2,3", "look like (a, b, -c)"), ("1", "expected 2 or 3 weights")],
)
def test_decompose_plane_refuses_bad_weights(capsys, weights, message):
    code, _, err = run(capsys, "decompose", "(3*x + y^2, 2*y)", "--grading", weights)
    assert code == 64 and message in err


def test_decompose_identity(capsys):
    code, out, _ = run(capsys, "decompose", "(x, y)")
    assert code == 0 and "identity" in out


def test_document_grading_fallback(capsys, tmp_path):
    doc = json.dumps(
        {
            "vars": ["x", "y", "z"],
            "coords": ["y^2*z + x", "y", "z"],
            "grading": {"weights": [1, 1, -1]},
        }
    )
    code, out, _ = run(capsys, "decompose", doc)
    assert code == 0 and "(y^2*z + x, y, z)" in out
    path = tmp_path / "m.json"
    path.write_text(doc)
    code, out2, _ = run(capsys, "decompose", f"@{path}")
    assert code == 0 and out2 == out


def test_grading_flag_overrides_document(capsys):
    doc = json.dumps(
        {
            "vars": ["x", "y", "z"],
            "coords": ["y^2*z + x", "y", "z"],
            "grading": {"weights": [7, 2, -3]},
        }
    )
    code, _, err = run(capsys, "decompose", doc, "--grading", "1,1,-2")
    assert code == 2  # the flag's weights apply, and the map is not graded


RESIDUE_DOC = json.dumps(
    {
        "vars": ["x", "y"],
        "coords": ["x + y^2", "y"],
        "grading": {"weights": [7, 2], "modulus": 3},
    }
)


def test_plane_decompose_reads_the_document_modulus(capsys):
    code, out, _ = run(capsys, "decompose", RESIDUE_DOC)
    assert code == 0
    code, flagged, _ = run(capsys, "decompose", "(x + y^2, y)", "--grading", "7,2,-3")
    assert code == 0 and out == flagged


@pytest.mark.parametrize("command", ["verify", "invert", "decompose", "certify-wild"])
def test_exact_weight_commands_refuse_a_document_modulus(capsys, command):
    doc = json.dumps(
        {
            "vars": ["x", "y", "z"],
            "coords": ["y^2*z + x", "y", "z"],
            "grading": {"weights": [1, 1, -1], "modulus": 2},
        }
    )
    code, _, err = run(capsys, command, doc)
    assert code == 64 and "modulus" in err


def test_lift_refuses_a_document_modulus(capsys):
    code, _, err = run(capsys, "lift", RESIDUE_DOC)
    assert code == 64 and "modulus" in err


def test_lift_reads_no_plane_document_grading(capsys):
    # two exact weights are a plane grading, never lift's (a, b, -c)
    doc = json.dumps(
        {"vars": ["x", "y"], "coords": ["x + y^5", "y"], "grading": {"weights": [7, 2]}}
    )
    code, _, err = run(capsys, "lift", doc)
    assert code == 64 and "--grading" in err and "must look like" not in err
    code, out, _ = run(capsys, "lift", doc, "--grading", "7,2,-3")
    assert code == 0 and out.strip() == "(y^5*z + x, y, z)"


def test_lift(capsys):
    code, out, _ = run(capsys, "lift", "(u + v^5, v)", "--grading", "7,2,-3")
    assert code == 0
    assert out.strip() == "(y^5*z + x, y, z)"
    code, out, _ = run(
        capsys, "lift", "(u + v^2, v)", "--grading", "7,2,-3", "--json"
    )
    assert code == 3
    data = json.loads(out)
    assert data["liftable"] is False
    assert data["obstruction"]["kind"] == "low-monomial"
    code, _, err = run(capsys, "lift", "(u + v^5, v)")
    assert code == 64 and "grading" in err


def test_restrict(capsys):
    code, out, _ = run(capsys, "restrict", "(x + y^5*z, y, z)")
    assert code == 0 and out.strip() == "(y^5 + x, y)"
    code, _, err = run(capsys, "restrict", "(x, y, 2*z)")
    assert code == 64 and "error:" in err


def test_certify_wild(capsys):
    code, out, _ = run(capsys, "certify-wild", WITNESS, "--grading", "7,2,-3")
    assert code == 4 and "certified wild" in out
    code, out, _ = run(
        capsys, "certify-wild", "(x + y^5*z, y, z)", "--grading", "7,2,-3"
    )
    assert code == 0 and "inconclusive" in out


def test_certify_wild_needs_weights(capsys):
    code, _, err = run(capsys, "certify-wild", "(x + y^2*z, y, z)")
    assert code == 64 and "needs --grading" in err


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "7", "2", "-3", "--check", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["certificate"]["violating_degree"] == 3
    assert parse_map(data["map"]) == wild_witness((7, 2, -3)).map
    code, _, err = run(capsys, "witness", "5", "2", "-3")
    assert code == 64 and "error:" in err


def test_witness_trivial_grading(capsys):
    code, out, _ = run(capsys, "witness", "0", "0", "0")
    assert code == 0
    assert "certified by construction" in out


def test_polygon(capsys):
    code, out, _ = run(capsys, "polygon", "y^2 + x*y + x^3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == [[0, 0], [3, 0], [0, 2]]
    assert data["area"] == "3"


def test_polygon_svg_deterministic(capsys, tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for path in (first, second):
        code, _, _ = run(capsys, "polygon", "y^2 + x^3", "--svg", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    xml.dom.minidom.parse(str(first))


def test_trace_svg(capsys, tmp_path):
    path = tmp_path / "trace.svg"
    code, _, _ = run(
        capsys, "decompose", "(x + (y + x^2)^2, y + x^2)", "--trace-svg", str(path)
    )
    assert code == 0
    document = xml.dom.minidom.parse(str(path))
    labels = [
        node.firstChild.data
        for node in document.getElementsByTagName("text")
    ]
    assert any("step 0" in label for label in labels)
    assert any("area 0" in label for label in labels)
    code, _, err = run(
        capsys, "decompose", "(x, y, z)", "--trace-svg", str(path)
    )
    assert code == 64 and "two-variable" in err


def test_example_command(capsys):
    code, out, _ = run(capsys, "example")
    assert code == 0 and "nagata" in out
    code, out, _ = run(capsys, "example", "nagata", "--json")
    assert code == 0
    data = json.loads(out)
    nag = parse_map(data["map"])
    assert verify_inverse_pair(nag, parse_map(data["inverse"]))
    code, out, _ = run(capsys, "example", "witness(0,0,0)", "--json")
    assert code == 0
    data = json.loads(out)
    assert (parse_map(data["map"]), parse_map(data["inverse"])) == nagata_pair()
    code, _, err = run(capsys, "example", "nope")
    assert code == 64 and "known names" in err


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "decompose", "(x + y^2")
    assert code == 64
    code, _, _ = run(capsys)
    assert code == 64
    code, _, _ = run(capsys, "--help")
    assert code == 0
    code, _, err = run(capsys, "restrict", "@/nonexistent/path.json")
    assert code == 64 and "error:" in err


LONG_LITERAL = "1" * 5000
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter reads integer literals of any length",
)


def _non_utf8_file(tmp_path):
    path = tmp_path / "map.txt"
    path.write_bytes(b"(x + y\xff, y)")
    return f"@{path}"


@pytest.mark.parametrize(
    "argv",
    [
        # the outer map parenthesis, then one level past the parser's bound of 100
        pytest.param(
            lambda _: ["verify", "(" * 102 + "x" + ")" * 101 + ", y)"],
            id="nested-parentheses",
        ),
        pytest.param(
            lambda _: ["verify", '{"vars": ' + "[" * 2000 + "]" * 2000 + "}"],
            id="nested-json",
        ),
        pytest.param(
            lambda _: ["verify", f"(x + {LONG_LITERAL}, y)"],
            id="long-literal",
            marks=needs_digit_limit,
        ),
        pytest.param(
            lambda _: ["example", f"witness({LONG_LITERAL},1,1)"],
            id="long-example-weight",
            marks=needs_digit_limit,
        ),
        pytest.param(
            lambda _: [
                "verify",
                '{"vars": ["x", "y"], "coords": ["x", "y"], '
                f'"grading": {{"weights": [{LONG_LITERAL}, 1]}}}}',
            ],
            id="long-json-integer",
            marks=needs_digit_limit,
        ),
        pytest.param(
            lambda tmp_path: ["verify", _non_utf8_file(tmp_path)],
            id="non-utf8-file",
        ),
        # a plane map and a three-variable candidate inverse: not a false verify
        pytest.param(
            lambda _: ["verify", "(x + y^2, y)", "(x*y, y, z)"],
            id="inverse-of-another-arity",
        ),
    ],
)
def test_hostile_input_is_a_usage_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv(tmp_path))
    assert code == 64 and err.startswith("error:")


# the child's address space is capped, so a witness built without the size
# bound fails there with MemoryError (exit 70) instead of filling the host
_CAPPED_MAIN = """
import resource, sys
limit = 800 * 2**20
_, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from tamekit.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [["witness", "1000000001", "2", "-3"], ["example", "witness(1000000001,2,3)"]],
    ids=["witness", "example"],
)
def test_oversized_witness_is_refused_before_it_is_built(argv):
    pytest.importorskip("resource")
    src = str(Path(tamekit.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert out.returncode == 64, out.stderr
    assert out.stderr.startswith("error:") and "size bound" in out.stderr


MAP_ARG = (
    (), "map", None, None, None, None, "inline '(f, g[, h])', JSON '{...}', or '@file'"
)
GRADING_FLAG = (
    ("--grading",), "grading", None, None, None, "W", "comma-separated weights, e.g. 7,2,-3"
)
JSON_FLAG = (("--json",), "json", 0, None, False, None, "machine-readable output")
WEIGHT_ARGS = [((), name, None, int, None, None, None) for name in "abc"]

# each subcommand's help, then its arguments as (flags, dest, nargs, type,
# default, metavar, help) in the order --help lists them
CLI_SURFACE = [
    ("verify", "inverse-pair or automorphism check", [
        MAP_ARG,
        ((), "inverse", "?", None, None, None, "candidate inverse map"),
        GRADING_FLAG,
        JSON_FLAG,
    ]),
    ("compose", "compose maps, applied right to left", [
        ((), "maps", "+", None, None, None, "maps, leftmost applied last"),
        JSON_FLAG,
    ]),
    ("invert", "exact inverse via factorization", [MAP_ARG, GRADING_FLAG, JSON_FLAG]),
    ("decompose", "factor into elementary and linear maps", [
        MAP_ARG,
        (("--trace-svg",), "trace_svg", None, None, None, "PATH",
         "write the plane descent trace as SVG (two-variable maps)"),
        GRADING_FLAG,
        JSON_FLAG,
    ]),
    ("classify", "does a grading admit wild maps?", WEIGHT_ARGS + [JSON_FLAG]),
    ("witness", "build a graded-wild automorphism", WEIGHT_ARGS + [
        (("--check",), "check", 0, None, False, None, "run the full verification"),
        JSON_FLAG,
    ]),
    ("lift", "lift a plane map to three variables", [MAP_ARG, GRADING_FLAG, JSON_FLAG]),
    ("restrict", "restrict to the slice z = 1", [MAP_ARG, JSON_FLAG]),
    ("certify-wild", "low-degree monomial test for wildness",
     [MAP_ARG, GRADING_FLAG, JSON_FLAG]),
    ("polygon", "Newton polygon of a plane polynomial", [
        ((), "polynomial", None, None, None, None, "inline polynomial in two variables"),
        (("--svg",), "svg", None, None, None, "PATH", "write the polygon as SVG"),
        JSON_FLAG,
    ]),
    ("example", "named example maps", [
        ((), "name", "?", None, None, None, "example name; omit to list"),
        JSON_FLAG,
    ]),
]


def test_cli_surface():
    parser = cli._build_parser()
    assert (parser.prog, parser.description) == (
        "tamekit", "Exact tools for graded polynomial automorphisms."
    )
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    helps = {a.dest: a.help for a in commands._choices_actions}
    surface = [
        (name, helps[name], [
            (tuple(a.option_strings), a.dest, a.nargs, a.type, a.default,
             a.metavar, a.help)
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        ])
        for name, sub in commands.choices.items()
    ]
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("exc", [RuntimeError("stray"), InvariantViolation("bad chain")])
def test_internal_errors_exit_70(capsys, monkeypatch, exc):
    # a bug must not exit 1, which means "not an automorphism"
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_classify", broken)
    code, _, err = run(capsys, "classify", "7", "2", "-3")
    assert code == 70 and err.startswith("internal error:")
