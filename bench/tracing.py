"""Counters and spans around the library's public functions, installed from
outside the library.

Modules of the package import each other's functions with ``from .x import
f``, so one function has a binding in every module that imports it.
``Tracer.install`` replaces every binding of each target, in every loaded
``stratavol`` module (or on its class, for methods), with one wrapper, and
``Tracer.uninstall`` puts the originals back.

Four kinds of wrapper, chosen per target by how often it runs:

* ``SPAN``: records name, start, end and parent of each call; a function's
  self time is its spans' durations minus what their child spans cover;
* ``LEAF``: a hot function that calls no timed wrapper: a call count and
  busy time, no span; the busy time is taken out of the enclosing span's
  self time and given to the leaf's layer;
* ``GEN``: a generator function: calls, items yielded and the time spent
  producing them, accounted like a leaf (the generators wrapped here call no
  timed wrapper either);
* ``COUNT``: the hottest functions: a call count only; their time stays in
  the caller's self time.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

PACKAGE = "stratavol"

SPAN, LEAF, GEN, COUNT = "span", "leaf", "gen", "count"

# (module, attribute, kind, counter name or None for "<module>.<attribute>")
TARGETS = (
    ("exact_arith", "frak_z", COUNT, None),
    ("exact_arith", "frak_z_over_pi", COUNT, None),
    ("exact_arith", "bernoulli", COUNT, None),
    ("exact_arith", "zeta_neg", COUNT, None),
    ("exact_arith", "PiScalar.__add__", COUNT, "exact_arith.PiScalar.ops"),
    ("exact_arith", "PiScalar.__sub__", COUNT, "exact_arith.PiScalar.ops"),
    ("exact_arith", "PiScalar.__neg__", COUNT, "exact_arith.PiScalar.ops"),
    ("exact_arith", "PiScalar.__mul__", COUNT, "exact_arith.PiScalar.ops"),
    ("exact_arith", "PiScalar.__truediv__", COUNT, "exact_arith.PiScalar.ops"),
    ("partitions", "set_partitions_of", GEN, None),
    ("partitions", "iter_int_partitions", GEN, None),
    ("partitions", "iter_set_partitions_with_blocks", GEN, None),
    ("partitions", "enum_complementary", SPAN, None),
    ("partitions", "enum_int_partitions", SPAN, None),
    ("partitions", "enum_partitions_of_weight", SPAN, None),
    ("partitions", "meet", COUNT, None),
    ("partitions", "mobius_coeff", COUNT, None),
    ("characters", "central_char_f", LEAF, None),
    ("characters", "CharTableCache.get", COUNT, "characters.cache.get"),
    ("characters", "dimension", COUNT, None),
    ("coverings", "cov_d", SPAN, None),
    ("coverings", "cov_series", SPAN, None),
    ("coverings", "cov_prime_series", SPAN, None),
    ("coverings", "cov_connected_series", SPAN, None),
    ("coverings", "asymptotic_ratio", SPAN, None),
    ("coverings", "brute_force_hom_count", SPAN, None),
    ("qseries", "QSeries.__mul__", SPAN, "qseries.QSeries.mul"),
    ("qseries", "QSeries.__add__", SPAN, "qseries.QSeries.add"),
    ("qseries", "euler_series", SPAN, None),
    ("shifted_symmetric", "f_top_expansion", SPAN, None),
    ("shifted_symmetric", "q_average", SPAN, None),
    ("shifted_symmetric", "p_eval", COUNT, None),
    ("cumulants", "elementary_cumulant", SPAN, None),
    ("cumulants", "elementary_cumulant_series_oracle", SPAN, None),
    ("cumulants", "wick_leading", SPAN, None),
    ("cumulants", "f_cumulant_leading", SPAN, None),
    ("cumulants", "c_const", SPAN, None),
    ("cumulants", "c_simple", SPAN, None),
    ("cumulants", "volume", SPAN, None),
    ("npoint", "direct_one_point", SPAN, None),
    ("npoint", "theta_series", SPAN, None),
    ("npoint", "verify_theorem1_n1", SPAN, None),
    ("verify", "run_suite", SPAN, None),
    ("cli", "main", SPAN, None),
)

LAYERS = (
    "exact_arith", "partitions", "characters", "coverings", "qseries",
    "shifted_symmetric", "cumulants", "npoint", "verify", "cli",
)


def _package_modules() -> dict:
    return {
        name: module for name, module in list(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    }


def cache_entries() -> int:
    """Entries in the process-wide character-table cache, 0 when the
    package has no such cache."""
    get_cache = getattr(sys.modules.get(PACKAGE), "character_cache", None)
    return len(get_cache()) if get_cache is not None else 0


class Tracer:
    """Wrappers and the spans and counters they record, for one process.

    Span ``i`` is stored column-wise: ``start[i]``, ``end[i]``,
    ``parent[i]``, ``name[i]`` (an index into ``names``) and ``leaf[i]``,
    the busy time of leaves and generators that ran directly inside it.
    Span 0 is a root that is open from construction to ``summary``.
    """

    def __init__(self) -> None:
        self.names: list[str] = ["root"]
        self._name_ids: dict[str, int] = {"root": 0}
        self.start = array("d", [perf_counter()])
        self.end = array("d", [0.0])
        self.parent = array("q", [-1])
        self.name = array("q", [0])
        self.leaf = array("d", [0.0])
        self.stack = [0]
        # name -> [calls, extra count, busy seconds, label of the extra count]
        self.cells: dict[str, list] = {}
        self.cumulant_keys: set[tuple[int, ...]] = set()
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._originals: list[object] = []

    # -- wrappers -------------------------------------------------------

    def _cell(self, name: str, label: str | None = None) -> list:
        return self.cells.setdefault(name, [0, 0, 0.0, label])

    def _span(self, name: str, fn, observe=None):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        start, end, parent, names, leaf, stack = (
            self.start, self.end, self.parent, self.name, self.leaf, self.stack)

        def wrapper(*args, **kwargs):
            i = len(start)
            parent.append(stack[-1])
            names.append(nid)
            leaf.append(0.0)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn):
        cell, leaf, stack = self._cell(name), self.leaf, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                cell[0] += 1
                cell[2] += dt
                leaf[stack[-1]] += dt

        return wrapper

    def _gen(self, name: str, fn):
        cell, leaf, stack = self._cell(name, "yielded"), self.leaf, self.stack

        def produce(it):
            while True:
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    dt = perf_counter() - t0
                    cell[2] += dt
                    leaf[stack[-1]] += dt
                    return
                dt = perf_counter() - t0
                cell[1] += 1
                cell[2] += dt
                leaf[stack[-1]] += dt
                yield item

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return produce(fn(*args, **kwargs))

        return wrapper

    def _count(self, name: str, fn):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache_get(self, name: str, fn):
        cell = self._cell(name, "hits")

        def wrapper(cache, key):
            cell[0] += 1
            value = fn(cache, key)
            if value is not None:
                cell[1] += 1
            return value

        return wrapper

    def _wrapper_for(self, attr: str, kind: str, name: str, fn):
        if attr == "CharTableCache.get":
            return self._cache_get(name, fn)
        if kind == SPAN:
            observe = None
            if attr == "elementary_cumulant":
                keys = self.cumulant_keys

                def observe(args, result):
                    keys.add(tuple(sorted(args[0], reverse=True)))
            elif attr == "enum_complementary":
                cell = self._cell(name, "returned")

                def observe(args, result):
                    cell[1] += len(result)
            return self._span(name, fn, observe)
        return {LEAF: self._leaf, GEN: self._gen, COUNT: self._count}[kind](name, fn)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every target.  The package and all its
        modules must already be imported (``import stratavol.cli`` does).
        A target the package no longer has is skipped and listed in
        ``missing``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        self.missing.clear()
        for module, attr, kind, name in TARGETS:
            *cls, fname = attr.split(".")
            owner = modules.get(f"{PACKAGE}.{module}")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            original = vars(owner).get(fname) if owner is not None else None
            if original is None:
                # A change may remove a target; its figures then read 0.
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrapper_for(attr, kind, name or f"{module}.{attr}", original)
            self._originals.append(original)
            for namespace in [owner] if cls else modules.values():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._saved.append((namespace, key, original))

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._saved):
            setattr(namespace, key, original)
        self._saved.clear()
        self._originals.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Bindings of a target that still hold the original function while
        installed: a binding the scan missed."""
        originals = {id(fn) for fn in self._originals}
        missed = []
        for mname, module in _package_modules().items():
            namespaces = [module] + [v for v in vars(module).values() if isinstance(v, type)]
            for ns in namespaces:
                for key, value in vars(ns).items():
                    if id(value) in originals:
                        missed.append(f"{mname}:{getattr(ns, '__name__', '')}.{key}")
        return missed

    # -- derived figures -------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self seconds, per-layer self seconds, and the
        counters, derived from the spans and cells recorded so far."""
        n = len(self.start)
        start, end, parent, name, leaf = self.start, self.end, self.parent, self.name, self.leaf
        covered = [0.0] * n
        for i in range(1, n):
            covered[parent[i]] += end[i] - start[i]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i in range(1, n):
            key = self.names[name[i]]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + (end[i] - start[i]) - covered[i] - leaf[i]
        counters: dict[str, int] = {}
        for key, (count, extra, busy, label) in self.cells.items():
            calls[key] = calls.get(key, 0) + count
            if label:
                counters[f"{key}.{label}"] = extra
            if busy:
                self_s[key] = self_s.get(key, 0.0) + busy
        layer_self_s = {layer: 0.0 for layer in LAYERS}
        for key, seconds in self_s.items():
            layer_self_s[key.split(".", 1)[0]] += seconds
        return {
            "calls": calls,
            "counters": counters,
            "self_s": self_s,
            "layer_self_s": layer_self_s,
            "cumulant_keys": sorted(self.cumulant_keys),
            "missing_targets": list(self.missing),
            "spans": n - 1,
        }
