"""The per-layer view: which public names are wrapped, and the metrics
computed from their spans.

Every wrapped name belongs to one layer (the part of its span name before
the first dot): ``lang``, ``opt``, ``ir``, ``vm``, ``cache``, ``runner``,
``parallel``, ``experiments``, ``serve``.  Time not covered by any wrapped
call is reported as ``other``.
"""
from __future__ import annotations

import collections
import os
from typing import Dict, Tuple

from spans import Tracer

#: The optimizer registry entries, in ``repro.opt.pipeline.PASSES`` order.
PASS_NAMES = [
    "constant-folding",
    "copy-propagation",
    "cse",
    "jump-threading",
    "if-conversion",
    "branch-folding",
    "remove-unreachable",
    "dead-instructions",
]

#: The passes the paper configuration enables; the others never run on
#: the benchmark's workloads, so only these get per-pass metrics.
PAPER_PASSES = [
    "constant-folding",
    "copy-propagation",
    "cse",
    "jump-threading",
    "dead-instructions",
]

#: The bundled programs, in the registry's Table 2 order.
PROGRAMS = [
    "spice2g6", "doduc", "nasa7", "matrix300", "fpppp", "tomcatv", "lfk",
    "gcc", "espresso", "li", "eqntott", "compress", "uncompress", "mfcom",
    "spiff",
]

#: Span name of each wrapped experiment ``run()`` -> its module name.
EXPERIMENTS = {
    "experiments.table3": "table3",
    "experiments.figure1": "figure1",
    "experiments.figure2": "figure2",
    "experiments.figure3": "figure3",
    "experiments.dynamic": "dynamic_compare",
    "experiments.runlengths": "runlengths",
}


#: The layers that do the program's own work: compiling, optimizing,
#: lowering, executing and caching.  Their self times must cover most of
#: a traced iteration; the runner, ``run_many`` and experiment wrappers
#: only catch whatever work moves out of the named stage functions.
STAGE_LAYERS = ("lang", "opt", "ir", "vm", "cache")

#: Counts that must repeat exactly across processes and hash seeds.
EXACT_COUNTS = [
    "vm.instructions", "vm.branch_events", "ir.static_instrs",
    "opt.cap_hits", "cache.bytes_stored", "serve.epoch",
] + [f"opt.pass_calls.{name}" for name in PAPER_PASSES]


# -- observers: facts read off a wrapped call's arguments and result -----------


def _observe_optimize(tracer: Tracer, index, args, kwargs, result) -> None:
    module = args[0]
    options = args[1] if len(args) > 1 else kwargs.get("options")
    tracer.attrs[index] = {
        "functions": len(module.functions),
        # optimize_module's own default (OptOptions.classical()) caps at 10.
        "max_iterations": 10 if options is None else options.max_iterations,
    }


def _observe_pass(tracer: Tracer, index, args, kwargs, result) -> None:
    if result:
        tracer.counts[f"opt.changed.{tracer.spans[index][0]}"] += 1


def _observe_lower(tracer: Tracer, index, args, kwargs, result) -> None:
    tracer.counts["ir.static_instrs"] += sum(
        len(function.code) for function in result.functions
    )


def _observe_run_fast(tracer: Tracer, index, args, kwargs, result) -> None:
    program = args[0].program.name
    tracer.counts["vm.instructions"] += result.instructions
    tracer.counts[f"vm.instructions.{program}"] += result.instructions
    tracer.counts[f"vm.run_s.{program}"] += tracer.duration(index)


def _observe_run_monitored(tracer: Tracer, index, args, kwargs, result) -> None:
    tracer.counts["vm.branch_events"] += sum(result.branch_exec)


def _entry_bytes(cache, digest: str) -> int:
    return os.path.getsize(cache._path(digest))


def _observe_load(tracer: Tracer, index, args, kwargs, result) -> None:
    cache, digest = args[0], args[1]
    if result is None:
        tracer.counts["cache.misses"] += 1
    else:
        tracer.counts["cache.hits"] += 1
        tracer.counts["cache.bytes_loaded"] += _entry_bytes(cache, digest)


def _observe_store(tracer: Tracer, index, args, kwargs, result) -> None:
    cache, digest = args[0], args[1]
    tracer.counts["cache.bytes_stored"] += _entry_bytes(cache, digest)


def install(tracer: Tracer) -> None:
    """Wrap every layer's public names (see the module docstring)."""
    import repro.compiler as compiler
    import repro.vm.engine as engine
    from repro.core.cache import DiskCache
    from repro.core.runner import WorkloadRunner
    from repro.experiments import (
        dynamic_compare, figure1, figure2, figure3, runlengths, table3,
    )
    from repro.opt.pipeline import PASSES
    from repro.serve.client import ProfileClient

    for attribute, name, observe in (
        ("parse_source", "lang.parse", None),
        ("analyze", "lang.sema", None),
        ("generate_module", "lang.codegen", None),
        ("parse_directives", "lang.directives", None),
        ("inline_module", "opt.inline", None),
        ("optimize_module", "opt.optimize", _observe_optimize),
        ("validate_module", "ir.validate", None),
        ("lower_module", "ir.lower", _observe_lower),
    ):
        tracer.wrap(compiler, attribute, name, observe)
    tracer.wrap_passes(PASSES, PASS_NAMES, _observe_pass)
    tracer.wrap(engine, "predecode", "vm.predecode")
    tracer.wrap(engine, "run_fast", "vm.run_fast", _observe_run_fast)
    tracer.wrap(engine, "run_monitored", "vm.run_monitored", _observe_run_monitored)
    tracer.wrap(DiskCache, "load", "cache.load", _observe_load)
    tracer.wrap(DiskCache, "store", "cache.store", _observe_store)
    tracer.wrap(WorkloadRunner, "compiled", "runner.compiled")
    tracer.wrap(WorkloadRunner, "run_many", "parallel.run_many")
    modules = {
        "table3": table3, "figure1": figure1, "figure2": figure2,
        "figure3": figure3, "dynamic_compare": dynamic_compare,
        "runlengths": runlengths,
    }
    for name, module_name in EXPERIMENTS.items():
        tracer.wrap(modules[module_name], "run", name)
    tracer.wrap(ProfileClient, "upload_profile", "serve.upload")
    tracer.wrap(ProfileClient, "predict", "serve.predict")


# -- metrics --------------------------------------------------------------------


def _optimizer_loops(tracer: Tracer) -> Tuple[int, int]:
    """(most iterations any module ran, modules that ran to the cap).

    Every enabled pass runs once per function per iteration, so a
    module's iteration count is its busiest pass's calls / functions.
    """
    kids = tracer.children()
    most = cap_hits = 0
    for index, facts in tracer.attrs.items():
        if "functions" not in facts or not facts["functions"]:
            continue
        calls = collections.Counter(
            tracer.spans[child][0] for child in kids.get(index, ())
        )
        loops = max(calls.values(), default=0) // facts["functions"]
        most = max(most, loops)
        if loops >= facts["max_iterations"]:
            cap_hits += 1
    return most, cap_hits


def layer_self_times(tracer: Tracer, root: str) -> Dict[str, float]:
    """Self time per layer; the root spans' own self time is ``other``."""
    layers: Dict[str, float] = collections.defaultdict(float)
    for index, own in enumerate(tracer.self_times()):
        name = tracer.spans[index][0]
        layers["other" if name == root else name.split(".", 1)[0]] += own
    return dict(layers)


def metrics_from_spans(tracer: Tracer, iterations: int) -> Dict[str, float]:
    """Per-layer metrics, per traced iteration, from recorded spans."""
    totals = tracer.totals()
    counts = tracer.counts

    def total(name: str) -> float:
        return totals[name]["total_s"] / iterations if name in totals else 0.0

    def calls(name: str) -> float:
        return totals[name]["calls"] / iterations if name in totals else 0.0

    values: Dict[str, float] = {
        "lang.parse_s": total("lang.parse"),
        "lang.sema_s": total("lang.sema"),
        "lang.codegen_s": total("lang.codegen"),
        "opt.total_s": total("opt.optimize") + total("opt.inline"),
    }
    pass_calls = pass_changed = 0.0
    for name in PASS_NAMES:
        span = f"opt.pass.{name}"
        if name in PAPER_PASSES:
            values[f"opt.pass_s.{name}"] = total(span)
            values[f"opt.pass_calls.{name}"] = calls(span)
        pass_calls += calls(span)
        pass_changed += counts[f"opt.changed.{span}"] / iterations
    most, cap_hits = _optimizer_loops(tracer)
    values["opt.useful_ratio"] = pass_changed / pass_calls if pass_calls else 0.0
    values["opt.iterations_max"] = most
    values["opt.cap_hits"] = cap_hits / iterations
    values["ir.validate_s"] = total("ir.validate")
    values["ir.lower_s"] = total("ir.lower")
    values["ir.static_instrs"] = counts["ir.static_instrs"] / iterations

    run_s = total("vm.run_fast")
    instructions = counts["vm.instructions"] / iterations
    values["vm.predecode_s"] = total("vm.predecode")
    values["vm.run_s"] = run_s
    values["vm.instructions"] = instructions
    values["vm.mops"] = instructions / run_s / 1e6 if run_s else 0.0
    for program in PROGRAMS:
        seconds = counts[f"vm.run_s.{program}"]
        executed = counts[f"vm.instructions.{program}"]
        values[f"vm.mops.{program}"] = executed / seconds / 1e6 if seconds else 0.0
    monitored_s = total("vm.run_monitored")
    events = counts["vm.branch_events"] / iterations
    values["vm.monitored_run_s"] = monitored_s
    values["vm.branch_events"] = events
    values["vm.ns_per_event"] = monitored_s / events * 1e9 if events else 0.0

    hits = counts["cache.hits"] / iterations
    misses = counts["cache.misses"] / iterations
    values["cache.load_s"] = total("cache.load")
    values["cache.store_s"] = total("cache.store")
    values["cache.hits"] = hits
    values["cache.misses"] = misses
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cache.bytes_stored"] = counts["cache.bytes_stored"] / iterations
    values["cache.bytes_loaded"] = counts["cache.bytes_loaded"] / iterations
    values["runner.compile_s"] = total("runner.compiled")
    values["parallel.run_many_s"] = total("parallel.run_many")
    values["experiments.dynamic_s"] = total("experiments.dynamic")
    values["experiments.runlengths_s"] = total("experiments.runlengths")
    values["experiments.render_s"] = sum(
        totals[name]["self_s"] for name in EXPERIMENTS if name in totals
    ) / iterations
    return values
