"""Spans recorded from outside the package, by wrapping its public functions.

``Recorder.install`` swaps each traced function for a wrapper in every
``ifmsim`` module that binds it, including the names a module re-binds
through ``from ... import`` (``ifmsim.audit.apply_rule`` and friends), and
returns a callable that puts the originals back.  Spans stay in memory as
tuples ``(id, parent, name, start, end, attrs, error)`` in the order they
close, which is post-order: every child closes before its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

MODULES = ("states", "rules", "experiments", "audit", "cli")

TRACED = {
    "states": (
        "tensor_product", "joint_born_distribution", "born_distribution", "partial_trace",
        "fidelity", "random_state", "haar_unitary", "apply_unitary",
    ),
    "rules": ("apply_rule", "swapped_channel"),
    "experiments": (
        "run_filter_exact", "run_filter_mc", "run_correlation_mc", "run_flip_mc", "derive_rng",
    ),
    "audit": (
        "audit_rule", "check_indistinguishability", "check_role_symmetry",
        "check_anti_alignment", "check_basis_covariance", "chi_square_two_sample", "tvd",
    ),
}

CHECKS = {
    "C1": "audit.check_indistinguishability",
    "C2": "audit.check_role_symmetry",
    "C3": "audit.check_anti_alignment",
    "C4": "audit.check_basis_covariance",
}

# Uniform-block width k of the ``rng.random((trials, k))`` draw behind each
# sampling entry point; audit checks draw only in Monte Carlo mode.
_BLOCK_WIDTH = {
    "experiments.run_filter_mc": 4,
    "experiments.run_correlation_mc": 3,
    "experiments.run_flip_mc": 3,
    "audit.check_role_symmetry": 1,
    "audit.check_anti_alignment": 2,
    "audit.check_basis_covariance": 1,
}

MB = float(1 << 20)


def _sampling_attrs(name: str, fn):
    """Attribute extractor giving ``trials`` and the computed block size, or None."""
    width = _BLOCK_WIDTH.get(name)
    if width is None:
        return None
    signature = inspect.signature(fn)

    def attrs(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        values = bound.arguments
        if "cfg" in values:
            trials = int(values["cfg"].trials)
        elif "config" in values:
            config = values["config"]
            if config is None or config.evaluation != "mc":
                return None
            trials = int(config.mc_trials)
        else:
            trials = int(values["trials"])
        return {"trials": trials, "block_mb": trials * width * 8 / MB}

    return attrs


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        kwargs = kwargs or {}
        sid = self._next_id
        self._next_id += 1
        parent = self.current()
        self._stack.append(sid)
        error = None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs, error))

    def wrap(self, name: str, fn):
        extract = _sampling_attrs(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = extract(args, kwargs) if extract is not None else None
            return self.call(name, fn, args, kwargs, attrs)

        return wrapper

    def install(self):
        """Wrap every traced function in every ifmsim module binding it."""
        package = importlib.import_module("ifmsim")
        modules = [package] + [importlib.import_module(f"ifmsim.{m}") for m in MODULES]
        wrappers = {}
        for short, names in TRACED.items():
            home = importlib.import_module(f"ifmsim.{short}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrappers[id(original)] = (original, self.wrap(f"{short}.{fn_name}", original))
        swapped = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    swapped.append((module, attr, value))

        def restore():
            for module, attr, value in swapped:
                setattr(module, attr, value)

        return restore

    def merge(self, spans, parent: int | None) -> None:
        """Append spans recorded by another process, re-numbered under ``parent``."""
        offset = self._next_id
        top = 0
        for sid, sparent, name, start, end, attrs, error in spans:
            top = max(top, sid + 1)
            new_parent = parent if sparent is None else sparent + offset
            self.spans.append((sid + offset, new_parent, name, start, end, attrs, error))
        self._next_id += top

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


class _Totals:
    __slots__ = ("calls", "wall", "self", "trials", "block_mb", "errors")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.self = 0.0
        self.trials = 0
        self.block_mb = 0.0
        self.errors = 0


def totals_by_name(spans) -> dict[str, _Totals]:
    """Calls, inclusive and self time per span name; spans must be in post-order."""
    child_time: dict[int, float] = {}
    out: dict[str, _Totals] = {}
    for sid, parent, name, start, end, attrs, error in spans:
        duration = end - start
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + duration
        t = out.setdefault(name, _Totals())
        t.calls += 1
        t.wall += duration
        t.self += duration - child_time.pop(sid, 0.0)
        if error is not None:
            t.errors += 1
        if attrs:
            t.trials += attrs["trials"]
            t.block_mb = max(t.block_mb, attrs["block_mb"])
    return out


def per_layer(spans, cycles: int) -> dict[str, float]:
    """Per-layer metrics per op cycle from the spans of ``cycles`` identical cycles."""
    totals = totals_by_name(spans)
    empty = _Totals()

    def get(name):
        return totals.get(name, empty)

    def per_cycle(value):
        return value / cycles

    out = {}
    states = [t for name, t in totals.items() if name.startswith("states.")]
    out["states.calls"] = per_cycle(sum(t.calls for t in states))
    out["states.self_s"] = per_cycle(sum(t.self for t in states))
    apply = get("rules.apply_rule")
    out["rules.apply_rule.calls"] = per_cycle(apply.calls)
    out["rules.apply_rule.self_s"] = per_cycle(apply.self)
    out["rules.apply_rule.us_per_call"] = 1e6 * apply.wall / apply.calls if apply.calls else 0.0
    for name in ("rules.swapped_channel", "experiments.run_filter_exact",
                 "experiments.run_filter_mc", "experiments.derive_rng"):
        out[f"{name}.calls"] = per_cycle(get(name).calls)
        out[f"{name}.self_s"] = per_cycle(get(name).self)
    for name in ("experiments.run_filter_mc", "experiments.run_correlation_mc",
                 "experiments.run_flip_mc"):
        t = get(name)
        out[f"{name}.trials_per_s"] = t.trials / t.wall if t.wall else 0.0
    out["experiments.mc_block_mb"] = max(
        (get(name).block_mb for name in _BLOCK_WIDTH), default=0.0
    )
    for check, name in CHECKS.items():
        out[f"audit.{check}.wall_s"] = per_cycle(get(name).wall)
        out[f"audit.{check}.self_s"] = per_cycle(get(name).self)
    chi = get("audit.chi_square_two_sample")
    out["audit.chi_square.calls"] = per_cycle(chi.calls)
    out["audit.chi_square.self_s"] = per_cycle(chi.self)
    out["audit.chi_square.informative_frac"] = (
        (chi.calls - chi.errors) / chi.calls if chi.calls else 0.0
    )
    out["audit.tvd.calls"] = per_cycle(get("audit.tvd").calls)
    return out
