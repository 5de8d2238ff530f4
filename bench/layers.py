"""Per-layer spans and work counts, recorded from outside the library.

``LayerTracer.install(tk)`` wraps the public functions of tamekit's
``poly``, ``maps``, ``newton``, ``jung``, ``grading`` and ``space``
layers.  A module-level function is replaced under every name that
refers to it in every loaded tamekit module (``jung.compose`` as well as
``maps.compose``), so calls between layers are seen too; methods are
replaced on their class.  ``uninstall`` puts the originals back.

Each wrapped function records its calls and its self time: the span's
duration minus the time spent in wrapped functions it called.  A few
wrappers also count the work the call did (term pairs of a product,
descent steps, rejections decided by the Jacobian precheck, witnesses
verified by literal composition).  The library itself is not changed.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# layer name -> (owner, attribute) pairs it wraps; the owner is a module
# or a class path inside the tamekit package
LAYERS = {
    "poly.mul": (("Polynomial", "__mul__"), ("Polynomial", "__rmul__")),
    "poly.pow": (("Polynomial", "__pow__"),),
    "poly.substitute": (("Polynomial", "substitute"),),
    "poly.partial": (("Polynomial", "partial"),),
    "maps.compose": (("maps", "compose"),),
    "maps.constant_jacobian": (("maps", "constant_jacobian"),),
    "maps.factor_chain": (("FactorChain", "__init__"),),
    "maps.verify_inverse_pair": (("maps", "verify_inverse_pair"),),
    "maps.invert_factor": (("maps", "invert_factor"),),
    "newton.newton_area": (("newton", "newton_area"),),
    "newton.analyze_top_edge": (("newton", "analyze_top_edge"),),
    "jung.decompose_plane": (("jung", "decompose_plane"),),
    "grading.normalize_weights": (("grading", "normalize_weights"),),
    "grading.conjugate": (
        ("NormalizedGrading", "to_normalized"),
        ("NormalizedGrading", "to_original"),
    ),
    "grading.is_graded_map": (
        ("Grading", "is_graded_map"),
        ("ResidueGrading", "is_graded_map"),
    ),
    "space.classify_grading": (("space", "classify_grading"),),
    "space.wild_witness": (("space", "wild_witness"),),
    "space.witness_verify": (("WildWitness", "verify"),),
    "space.wildness_certificate": (("space", "wildness_certificate"),),
    "space.lift_plane_map": (("space", "lift_plane_map"),),
    "space.restrict_to_plane": (("space", "restrict_to_plane"),),
    "space.decompose_graded": (("space", "decompose_graded"),),
    "space.decompose_positive": (("space", "decompose_positive"),),
    "space.decompose_zero_cases": (("space", "decompose_zero_cases"),),
    "space.decompose_qhat_low": (("space", "decompose_qhat_low"),),
    "space.rewrite_liftable_chain": (("space", "rewrite_liftable_chain"),),
    "space.invert_graded": (("space", "invert_graded"),),
}

CLASSES = {
    "Polynomial": "poly",
    "FactorChain": "maps",
    "NormalizedGrading": "grading",
    "Grading": "grading",
    "ResidueGrading": "grading",
    "WildWitness": "space",
}

# work counts: name -> unit
WORK = {
    "poly.mul.term_pairs": "count",
    "poly.mul.max_term_pairs": "count",
    "poly.mul.out_per_pair": "ratio",
    "poly.substitute.in_terms": "count",
    "jung.descent_steps": "count",
    "jung.jacobian_reject_share": "share",
    "space.verify_literal_share": "share",
}

OVERHEAD = {"trace.overhead_s": "s", "trace.overhead_share": "share"}

# workload -> layers that must record calls there, so that a rename in
# the library cannot silently zero a layer
EXPECTED = {
    "plane_roundtrip": (
        "poly.mul",
        "poly.pow",
        "poly.substitute",
        "poly.partial",
        "maps.compose",
        "maps.constant_jacobian",
        "maps.factor_chain",
        "newton.newton_area",
        "newton.analyze_top_edge",
        "jung.decompose_plane",
    ),
    "plane_reject": (
        "poly.mul",
        "poly.partial",
        "maps.constant_jacobian",
        "jung.decompose_plane",
    ),
    "witness": (
        "poly.mul",
        "poly.pow",
        "poly.substitute",
        "maps.compose",
        "maps.verify_inverse_pair",
        "grading.normalize_weights",
        "grading.conjugate",
        "grading.is_graded_map",
        "space.classify_grading",
        "space.wild_witness",
        "space.witness_verify",
        "space.wildness_certificate",
        "space.lift_plane_map",
        "space.restrict_to_plane",
    ),
    "graded": (
        "maps.compose",
        "maps.factor_chain",
        "maps.verify_inverse_pair",
        "maps.invert_factor",
        "maps.constant_jacobian",
        "newton.newton_area",
        "grading.normalize_weights",
        "grading.conjugate",
        "grading.is_graded_map",
        "space.classify_grading",
        "space.lift_plane_map",
        "space.restrict_to_plane",
        "space.decompose_graded",
        "space.decompose_positive",
        "space.decompose_zero_cases",
        "space.decompose_qhat_low",
        "space.rewrite_liftable_chain",
        "space.invert_graded",
    ),
}

# work counts whose base must be nonzero on a workload: count -> workload
EXPECTED_WORK = {
    "poly.mul.term_pairs": "plane_roundtrip",
    "poly.substitute.in_terms": "plane_roundtrip",
    "jung.descent_steps": "plane_roundtrip",
    "jung.jacobian_reject_share": "plane_reject",
    "space.verify_literal_share": "witness",
}


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(WORK)
    units.update(OVERHEAD)
    return units


class LayerTracer:
    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.term_pairs = 0
        self.max_term_pairs = 0
        self.mul_out_terms = 0
        self.substitute_in_terms = 0
        self.descent_steps = 0
        self.jacobian_none = 0
        self.rejections = 0
        self.jacobian_rejections = 0
        self.verifies = 0
        self.literal_verifies = 0
        # one entry per open span: time spent in wrapped callees, and name
        self._stack = []
        self._patched = []

    # -- spans -----------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                calls[name] += 1
                self_s[name] += duration - frame[0]

        return wrapper

    def _wrap(self, name, fn, tk):
        span = self._span(name, fn)
        if name == "poly.mul":
            return self._wrap_mul(span, fn, tk.Polynomial)
        if name == "poly.substitute":

            def substitute(poly, images):
                self.substitute_in_terms += len(poly.terms)
                return span(poly, images)

            return substitute
        if name == "maps.constant_jacobian":

            def constant_jacobian(m):
                result = span(m)
                if result is None:
                    self.jacobian_none += 1
                return result

            return constant_jacobian
        if name == "jung.decompose_plane":
            return self._wrap_decompose_plane(span, tk.NotAnAutomorphism)
        if name == "space.witness_verify":
            return self._wrap_verify(span, fn)
        return span

    def _wrap_mul(self, span, fn, polynomial):
        stack = self._stack

        def mul(a, b):
            # Polynomial.__mul__ hands a product with the larger factor
            # first to b * a; that inner call is the same product
            if stack and stack[-1][1] == "poly.mul":
                return fn(a, b)
            result = span(a, b)
            if isinstance(b, polynomial) and isinstance(result, polynomial):
                pairs = len(a.terms) * len(b.terms)
                self.term_pairs += pairs
                if pairs > self.max_term_pairs:
                    self.max_term_pairs = pairs
                self.mul_out_terms += len(result.terms)
            return result

        return mul

    def _wrap_decompose_plane(self, span, not_an_automorphism):
        def decompose_plane(m, trace=None):
            def count_step(current, area):
                self.descent_steps += 1
                if trace is not None:
                    trace(current, area)

            before = self.jacobian_none
            try:
                return span(m, trace=count_step)
            except not_an_automorphism:
                self.rejections += 1
                if self.jacobian_none > before:
                    self.jacobian_rejections += 1
                raise

        return decompose_plane

    def _wrap_verify(self, span, fn):
        default_cap = inspect.signature(fn).parameters["compose_cap"].default

        def verify(witness, compose_cap=default_cap):
            self.verifies += 1
            if not witness.externally_certified:
                degw = max(f.total_degree() for f in witness.map.coords)
                degi = max(f.total_degree() for f in witness.inverse.coords)
                if degw * degi <= compose_cap:
                    self.literal_verifies += 1
            return span(witness, compose_cap=compose_cap)

        return verify

    # -- patching --------------------------------------------------------

    def install(self, tk):
        modules = [
            mod
            for name, mod in sys.modules.items()
            if name == tk.__name__ or name.startswith(tk.__name__ + ".")
        ]
        for name, targets in LAYERS.items():
            for owner_name, attr in targets:
                if owner_name in CLASSES:
                    owner = getattr(getattr(tk, CLASSES[owner_name]), owner_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(name, original, tk))
                    continue
                original = getattr(getattr(tk, owner_name), attr)
                wrapper = self._wrap(name, original, tk)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def metrics(self, passes):
        """Per-pass values of every layer metric except the overhead."""
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        out["poly.mul.term_pairs"] = self.term_pairs / passes
        out["poly.mul.max_term_pairs"] = self.max_term_pairs
        out["poly.mul.out_per_pair"] = (
            self.mul_out_terms / self.term_pairs if self.term_pairs else 0.0
        )
        out["poly.substitute.in_terms"] = self.substitute_in_terms / passes
        out["jung.descent_steps"] = self.descent_steps / passes
        out["jung.jacobian_reject_share"] = (
            self.jacobian_rejections / self.rejections if self.rejections else 0.0
        )
        out["space.verify_literal_share"] = (
            self.literal_verifies / self.verifies if self.verifies else 0.0
        )
        return out

    def missing(self, workload):
        """Layers and work counts that should have recorded work on this
        workload but did not."""
        gone = [f"{name}.calls" for name in EXPECTED[workload] if not self.calls[name]]
        bases = {
            "poly.mul.term_pairs": self.term_pairs,
            "poly.substitute.in_terms": self.substitute_in_terms,
            "jung.descent_steps": self.descent_steps,
            "jung.jacobian_reject_share": self.rejections,
            "space.verify_literal_share": self.verifies,
        }
        gone += [
            name for name, home in EXPECTED_WORK.items() if home == workload and not bases[name]
        ]
        return gone
