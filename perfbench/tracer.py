"""Spans around the calls into each dowlab layer, installed from outside.

``Tracer.install()`` replaces the public functions and methods listed in
``SPANS`` with timing wrappers, after ``dowlab.cli`` has been imported, so
no file under ``src/dowlab`` changes.  A module-level function is replaced
in every dowlab module that bound it (``from .series import gf_triangle``
gives ``stirling``, ``whitney``, ``bernoulli_euler`` and ``identities`` a
copy each), and in module-level dicts such as the CLI's ``COMMANDS``.
Catalog checkers get one span per identity id.

A span's self time is its duration minus the time its child spans cover.
The inclusive time of a span name counts only its outermost calls, so a
name that calls itself is not counted twice.  The wrappers are not
thread-safe: the benchmark runs dowlab with ``DOWLAB_THREADS`` unset.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# span name -> (module, attribute) pairs the span wraps.  "Cls.meth" wraps a
# method on the class; each alias such as __rmul__ is wrapped on its own.
# LambdaPoly.__init__/coerce/is_zero and the scalar accessors (whitney2,
# binom, ...) stay unwrapped: they are too small to time and their cost
# lands in the caller's self time.  XPoly.synth_div is only called by
# newton_convert, so it is left inside newton_convert's self time.
SPANS: dict[str, list[tuple[str, str]]] = {
    "exact.mul": [("exact", "LambdaPoly.__mul__"), ("exact", "LambdaPoly.__rmul__")],
    "exact.addsub": [
        ("exact", f"LambdaPoly.{name}")
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
    ],
    "exact.div": [("exact", "LambdaPoly.__truediv__")],
    "exact.str": [("exact", "LambdaPoly.__str__")],
    "exact.other": [
        ("exact", f"LambdaPoly.{name}")
        for name in ("__pow__", "__eq__", "eval", "scale_lambda", "parse")
    ],
    "bases.xpoly_mul": [("bases", "XPoly.__mul__"), ("bases", "XPoly.__rmul__")],
    "bases.newton_convert": [("bases", "newton_convert")],
    "bases.other": [
        ("bases", f"XPoly.{name}")
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "eval", "compose")
    ]
    + [
        ("bases", name)
        for name in (
            "basis_poly",
            "gen_binom",
            "int_nodes",
            "lambda_falling",
            "lambda_nodes",
            "lambda_rising",
        )
    ],
    "series.mul": [("series", "TruncatedSeries.__mul__")],
    "series.compose": [("series", "TruncatedSeries.compose")],
    "series.exp": [("series", "TruncatedSeries.exp")],
    "series.divide": [("series", "TruncatedSeries.divide")],
    "series.gf_triangle": [("series", "gf_triangle")],
    "series.other": [
        ("series", f"TruncatedSeries.{name}")
        for name in ("__add__", "__sub__", "__pow__", "scaled", "scale_t", "truncate", "from_coeffs")
    ]
    + [
        ("series", name)
        for name in ("binomial_series", "deg_exp", "deg_log", "one_series", "t_series")
    ],
    "stirling.newton": [
        ("stirling", name)
        for name in (
            "_stirling2_rows",
            "deg_stirling1_rows",
            "deg_stirling2_rows",
            "deg_r_stirling2_rows",
            "deg_r_stirling1_unsigned_rows",
        )
    ],
    "stirling.gf": [
        ("stirling", name)
        for name in (
            "deg_stirling1_rows_gf",
            "deg_stirling2_rows_gf",
            "deg_r_stirling2_rows_gf",
            "deg_r_stirling1_unsigned_rows_gf",
        )
    ],
    "stirling.other": [
        ("stirling", name) for name in ("_stirling1_rows", "deg_bell", "deg_bell_number")
    ],
    "whitney.recurrence": [("whitney", "whitney2_rows"), ("whitney", "whitney1_rows")],
    "whitney.newton": [
        ("whitney", name)
        for name in (
            "whitney2_rows_newton",
            "whitney1_rows_newton",
            "r_whitney2_rows",
            "r_whitney1_rows",
            "r_whitney1_rows_direct",
            "classical_whitney2_rows",
            "classical_whitney1_rows",
        )
    ],
    "whitney.gf": [
        ("whitney", name)
        for name in (
            "whitney2_rows_gf",
            "whitney1_rows_gf",
            "r_whitney2_rows_gf",
            "r_whitney1_rows_gf",
            "dowling_gf",
            "tanny_dowling_gf",
        )
    ],
    "whitney.alt": [
        ("whitney", name) for name in ("whitney2_alt", "whitney1_alt", "whitney2_diff", "v0")
    ],
    "whitney.dobinski": [("whitney", "dobinski_eval")],
    "whitney.other": [
        ("whitney", name)
        for name in ("dowling_poly", "dowling_number", "tanny_dowling_poly", "build_triangle")
    ],
    "bernoulli_euler": [
        ("bernoulli_euler", name)
        for name in (
            "deg_bernoulli",
            "deg_euler",
            "deg_euler_sum_variant",
            "deg_bernoulli_gf",
            "deg_euler_gf",
            "deg_euler_gf_binomial",
        )
    ],
    "cli.main": [("cli", "main")],
    "cli.parse": [("cli", "_build_parser"), ("cli", "_config_from_args")],
    "cli.cmd": [
        ("cli", name) for name in ("cmd_triangle", "cmd_eval", "cmd_verify", "cmd_dobinski")
    ],
    "cli.render": [("cli", "_render_triangle"), ("cli", "_entry_strings")],
    "cli.write": [("cli", "_write_output")],
}

ENTRY_PREFIX = "identities.entry."

# Layers whose self time is the sum over every span name under that prefix.
SELF_LAYERS = ("exact", "bases", "series", "cli")


def _operand_len(value) -> int:
    coeffs = getattr(value, "coeffs", None)
    if coeffs is not None:
        return len(coeffs)
    return 1 if value else 0


class Tracer:
    """Per-span-name counters: calls, self time and inclusive time."""

    def __init__(self) -> None:
        # name -> [calls, self_s, inclusive_s, open depth]
        self.stats: dict[str, list] = {}
        self.stack: list[list[float]] = []
        self.mul_len_sum = 0
        self.entry_points: dict[str, int] = {}
        self.catalog: list[str] = []
        self.missing: list[str] = []
        self.lru: list = []  # the unwrapped lru_cache functions
        self.rows_built = 0
        self.entries_built = 0

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """A function that times ``fn`` as one span of ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            stats[0] += 1
            stats[3] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[1] += elapsed - frame[0]
                stats[3] -= 1
                if not stats[3]:
                    stats[2] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return span

    def _count_mul(self, args) -> None:
        self.mul_len_sum += _operand_len(args[0]) + _operand_len(args[1])

    def _cache_recorder(self):
        """Count the rows and entries of each triangle the first time its key is seen."""
        seen: set = set()

        def record(args, kwargs, rows) -> None:
            key = args + tuple(sorted(kwargs.items()))
            if key not in seen:
                seen.add(key)
                self.rows_built += len(rows)
                self.entries_built += sum(len(row) for row in rows)

        return record

    def _entry_checker(self, ident: str, checker):
        def record(args, kwargs, result) -> None:
            self.entry_points[ident] = self.entry_points.get(ident, 0) + result[0]

        return self.wrap(ENTRY_PREFIX + ident, checker, on_result=record)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every span target in the loaded dowlab modules."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "dowlab" or key.startswith("dowlab.")
        ]
        for mod in modules:
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and value not in self.lru:
                    self.lru.append(value)
        for name, targets in SPANS.items():
            on_call = self._count_mul if name == "exact.mul" else None
            for module_name, path in targets:
                module = sys.modules.get(f"dowlab.{module_name}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or not hasattr(owner, attr):
                    self.missing.append(f"{module_name}.{path}")
                    continue
                if owner_name:
                    self._wrap_method(owner, attr, name, on_call)
                else:
                    fn = getattr(owner, attr)
                    on_result = self._cache_recorder() if hasattr(fn, "cache_info") else None
                    self._rebind(modules, fn, self.wrap(name, fn, on_call, on_result))
        catalog = getattr(sys.modules.get("dowlab.identities"), "CATALOG", {})
        self.catalog = list(catalog)
        for ident, entry in catalog.items():
            catalog[ident] = dataclasses.replace(
                entry, checker=self._entry_checker(ident, entry.checker)
            )

    def _wrap_method(self, cls, attr: str, name: str, on_call) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__, on_call)))
        else:
            setattr(cls, attr, self.wrap(name, raw, on_call))

    @staticmethod
    def _rebind(modules, original, wrapper) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper

    # -- results -------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything the parent needs to compute the per-layer metrics."""
        hits = misses = 0
        for fn in self.lru:
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        return {
            "spans": {name: s[:3] for name, s in self.stats.items()},
            "mul_len_sum": self.mul_len_sum,
            "catalog": self.catalog,
            "entry_points": self.entry_points,
            "cache": {
                "hits": hits,
                "misses": misses,
                "rows_built": self.rows_built,
                "entries_built": self.entries_built,
            },
            "missing": self.missing,
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of the processes of one job."""
    out: dict = {
        "spans": {},
        "mul_len_sum": 0,
        "catalog": [],
        "entry_points": {},
        "cache": {},
        "missing": [],
    }
    for snap in snapshots:
        for name, values in snap["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
        out["mul_len_sum"] += snap["mul_len_sum"]
        for ident in snap["catalog"]:
            if ident not in out["catalog"]:
                out["catalog"].append(ident)
        for ident, points in snap["entry_points"].items():
            out["entry_points"][ident] = out["entry_points"].get(ident, 0) + points
        for key, value in snap["cache"].items():
            out["cache"][key] = out["cache"].get(key, 0) + value
        out["missing"] = sorted(set(out["missing"]) | set(snap["missing"]))
    return out


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metric values from one merged snapshot (see BENCHMARK.json)."""
    spans = snap["spans"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[1]

    def incl_s(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[2]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["exact.mul.calls"] = calls("exact.mul")
    m["exact.mul.self_s"] = self_s("exact.mul")
    m["exact.mul.mean_len"] = ratio(snap["mul_len_sum"], 2 * calls("exact.mul"))
    m["exact.addsub.calls"] = calls("exact.addsub")
    m["exact.addsub.self_s"] = self_s("exact.addsub")
    m["exact.div.self_s"] = self_s("exact.div")
    m["exact.str.calls"] = calls("exact.str")
    m["exact.str.self_s"] = self_s("exact.str")
    m["bases.xpoly_mul.calls"] = calls("bases.xpoly_mul")
    m["bases.xpoly_mul.self_s"] = self_s("bases.xpoly_mul")
    m["bases.newton_convert.calls"] = calls("bases.newton_convert")
    m["bases.newton_convert.self_s"] = self_s("bases.newton_convert")
    for op in ("mul", "compose", "gf_triangle"):
        m[f"series.{op}.calls"] = calls(f"series.{op}")
    for op in ("mul", "compose", "exp", "divide", "gf_triangle"):
        m[f"series.{op}.self_s"] = self_s(f"series.{op}")
    for layer in SELF_LAYERS:
        m[f"{layer}.self_s"] = sum(s[1] for n, s in spans.items() if n.startswith(layer + "."))
    for route in ("whitney.recurrence", "whitney.newton", "whitney.gf", "whitney.alt",
                  "stirling.newton", "stirling.gf"):
        m[f"{route}.s"] = incl_s(route)
    cache = snap["cache"]
    m["cache.row_builds"] = cache.get("misses", 0)
    m["cache.row_hits"] = cache.get("hits", 0)
    m["cache.hit_ratio"] = ratio(cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0))
    # the lru caches are unbounded, so every row built stays held
    m["cache.rows_held"] = cache.get("rows_built", 0)
    m["cache.entries_built"] = cache.get("entries_built", 0)
    m["whitney.dobinski.calls"] = calls("whitney.dobinski")
    m["whitney.dobinski.self_s"] = self_s("whitney.dobinski")
    m["whitney.dobinski.evals_per_s"] = ratio(calls("whitney.dobinski"), incl_s("whitney.dobinski"))
    m["bernoulli_euler.s"] = incl_s("bernoulli_euler")
    for ident in snap["catalog"]:
        m[f"{ENTRY_PREFIX}{ident}.s"] = incl_s(ENTRY_PREFIX + ident)
    m["identities.points"] = sum(snap["entry_points"].values())
    m["cli.main.s"] = incl_s("cli.main")
    return m


def entry_table(snap: dict, top: int = 10) -> list[str]:
    """The ``top`` slowest catalog entries, listed in catalog order.

    Columns match the per-entry timing fields of a verify report:
    id, elapsed_s, params_tested and points_per_s.
    """
    spans = snap["spans"]
    times = {ident: spans.get(ENTRY_PREFIX + ident, [0, 0.0, 0.0])[2] for ident in snap["catalog"]}
    slowest = set(sorted(times, key=times.get, reverse=True)[:top])
    lines = [f"{'id':24s} {'elapsed_s':>10s} {'params_tested':>13s} {'points_per_s':>12s}"]
    for ident in snap["catalog"]:
        if ident in slowest and times[ident] > 0:
            points = snap["entry_points"].get(ident, 0)
            lines.append(
                f"{ident:24s} {times[ident]:10.3f} {points:13d} {points / times[ident]:12.1f}"
            )
    return lines
