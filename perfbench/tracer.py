"""Spans around calls into cyclocode, recorded from outside the package.

A span is opened by a wrapper installed in place of a library function or
method. Spans nest on a stack, so each name gets its call count and self
time: its duration minus the time of the spans it caused. Spans are
aggregated per name in memory rather than kept one by one: a pass makes
thousands of traced calls and only the per-layer sums are reported.

A function is wrapped at every place its callers look it up. `verify` binds
`verify_factorization` when it is imported, `tensor` binds `same_code`, `dual`
and `build_Cn`, and `codes`, `cyclotomic` and `tensor` bind `make_extension`;
wrapping only the defining module would miss those calls without any error.
`install` therefore rebinds every module attribute that refers to the
original object; smoke.py checks that calls made through those importers are
counted.
"""

import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "cyclocode"

# (span name, module, attribute path). A dotted attribute is a method, which
# is wrapped on its class; callers reach it through the instance.
SPANS = [
    ("field.FieldCtx", "field", "FieldCtx.__init__"),
    ("field.make_extension", "field", "make_extension"),
    ("field.primitive_element", "field", "FieldCtx.primitive_element"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.divmod", "poly", "Poly.__divmod__"),
    ("poly.pow_mod", "poly", "Poly.pow_mod"),
    ("cyclotomic.cyclotomic_poly", "cyclotomic", "cyclotomic_poly"),
    ("cyclotomic.verify_factorization", "cyclotomic", "verify_factorization"),
    ("cyclotomic.minimal_poly", "cyclotomic", "minimal_poly"),
    ("codes.rref", "codes", "GenMatrix.rref"),
    ("codes.same_code", "codes", "same_code"),
    ("codes.sum_codes", "codes", "sum_codes"),
    ("codes.from_generator", "codes", "from_generator"),
    ("codes.min_distance", "codes", "min_distance"),
    ("codes.weight_distribution", "codes", "weight_distribution"),
    ("codes.zeros_and_nonzeros", "codes", "zeros_and_nonzeros"),
    ("tensor.kronecker", "tensor", "kronecker"),
    ("tensor.apply_psi", "tensor", "apply_psi"),
    ("tensor.verify_tensor_dual", "tensor", "verify_tensor_dual"),
    ("report.emit_report", "report", "emit_report"),
]


class Tracer:
    """Per-name span totals plus the counters the span hooks keep."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        # time under at least one span: the sum of outermost span durations
        self.covered_s = 0.0
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, hook=None):
        """Wrap fn in a span; hook(args, kwargs, result, exc, self_s) runs after."""
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                dur = perf_counter() - t0
                own = dur - stack.pop()
                self.calls[name] += 1
                self.self_s[name] += own
                if stack:
                    stack[-1] += dur
                else:
                    self.covered_s += dur
                if hook is not None:
                    hook(args, kwargs, result, exc, own)

        traced.__wrapped__ = fn
        return traced


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def rebind(original, replacement):
    """Point every package-module attribute bound to original at replacement.

    Returns the number of look-up sites rebound.
    """
    sites = [
        (mod, attr)
        for mod in _package_modules()
        for attr, value in list(vars(mod).items())
        if value is original
    ]
    for mod, attr in sites:
        setattr(mod, attr, replacement)
    return len(sites)


def install(tracer, hooks):
    """Wrap every span in SPANS in the currently imported package.

    hooks maps a span name to its hook. Returns {span name: look-up sites}.
    """
    sites = {}
    for name, module, path in SPANS:
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, tracer.wrap(name, original, hooks.get(name)))
            sites[name] = 1
        else:
            original = getattr(mod, path)
            sites[name] = rebind(original, tracer.wrap(name, original, hooks.get(name)))
    return sites
