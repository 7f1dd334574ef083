"""Span and call-count recorders installed around fanshift's public functions.

Nothing here edits the package: ``install`` replaces module attributes at run
time, in the defining module and in every fanshift module that imported the
same function object, so calls made through ``from .x import f`` bindings are
recorded too.  Spans are kept in memory; ``Tracer.summary`` turns them into
per-name call counts, total time and self time (span minus child spans).
"""

from __future__ import annotations

import sys
import time

_now = time.perf_counter


def _check_hlavna_name(args, kwargs):
    return "quotients.check_hlavna." + kwargs.get("name", "map")


def _orbit_items(args, kwargs, result):
    return {"orbit_letters": len(result.point.word.letters), "visits": len(result.visits)}


# (module, attribute, span name or naming function, items from the result)
SPANS = (
    ("impression", "transitive_orbit_builder", None, _orbit_items),
    ("impression", "verify_orbit", None, None),
    ("impression", "build_net", None, None),
    ("mahavier", "dist_window", None, None),
    ("mahavier", "coord_range", None, None),
    ("mahavier", "random_window_point", None, None),
    ("itinerary", "cantor_certificate", None,
     lambda a, k, r: {"words_checked": r.words_checked}),
    ("relations", "decomposition_check", None,
     lambda a, k, r: {"samples": r.samples_checked}),
    ("quotients", "check_hlavna", _check_hlavna_name, None),
    ("quotients", "check_conjugated_shift", None,
     lambda a, k, r: {"pairs_compared": len(a[0]) * (len(a[0]) - 1) // 2}),
    ("quotients", "density_transfer_report", None,
     lambda a, k, r: {"pairs_compared": len(a[0]) * len(a[1])}),
    ("quotients", "build_fan", None, lambda a, k, r: {"legs": len(r.legs)}),
    ("quotients", "descend", None, None),
    ("invariants", "juma_metric_oracle", None, lambda a, k, r: {"legs": len(a[0].legs)}),
    ("invariants", "profile", None, None),
    ("invariants", "distinguish", None, lambda a, k, r: {"profile_lookups": 2}),
    ("figures", "render_figure", None, None),
    ("reports", "dump_report", None, lambda a, k, r: {"bytes": len(r.encode())}),
)

# Hot leaves get a counter only.  The optional last field limits the patch to
# one importing module's binding.
COUNTS = (
    ("itinerary", "Letter.piece", None),
    ("itinerary", "cantor_address", None),
    ("itinerary", "address_value", "quotients"),
    ("mahavier", "model_map", None),
    ("xspace", "dist", None),
    ("xspace", "embed", None),
    ("quotients", "sim_a", None),
)

# generator functions: count the items they yield
YIELDS = (("itinerary", "iter_words"),)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, label, extract):
        spans, stack, items = self.spans, self._stack, self.items
        fixed = None if callable(label) else label

        def wrapper(*args, **kwargs):
            name = fixed or label(args, kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            if extract is not None:
                for key, n in extract(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    items[key] = items.get(key, 0) + n
            return result

        return wrapper

    def _count(self, fn, name):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yields(self, fn, name):
        items = self.items
        items[name] = 0

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                items[name] += 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded fanshift modules."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("fanshift.") and mod is not None
        }

        def rebind(orig, new, only=None):
            for mname, mod in mods.items():
                if only is not None and mname != only:
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, new)

        for mname, attr, label, extract in SPANS:
            orig = getattr(mods[mname], attr)
            rebind(orig, self._span(orig, label or f"{mname}.{attr}", extract))
        for mname, path, only in COUNTS:
            owner, attr = mods[mname], path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            name = f"{only or mname}.{path}.calls"
            new = self._count(orig, name)
            if owner is not mods[mname]:
                setattr(owner, attr, new)  # a method: the class is the binding
            else:
                rebind(orig, new, only)
        for mname, attr in YIELDS:
            orig = getattr(mods[mname], attr)
            rebind(orig, self._yields(orig, f"{mname}.{attr}.items"))

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total seconds and self seconds per span name, plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float | int] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.total_s"] = out.get(f"{name}.total_s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child[i])
        out.update(self.calls)
        out.update(self.items)
        # calls made directly under a parent span: the builder's dist_window
        # calls, and the profiles distinguish had to compute (cache misses)
        for parent, name, key in (
            ("impression.transitive_orbit_builder", "mahavier.dist_window",
             "impression.transitive_orbit_builder.dist_window_calls"),
            ("invariants.distinguish", "invariants.profile",
             "invariants.distinguish.profile_misses"),
        ):
            inside = {i for i, s in enumerate(self.spans) if s[0] == parent}
            out[key] = sum(1 for s in self.spans if s[0] == name and s[3] in inside)
        return out
