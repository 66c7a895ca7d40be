"""Run one breguq command repeatedly in this process and time each call.

Usage: python3 worker.py RESULT_JSON TRACE MIN_REPS SECONDS MIX ARGV...

Calls `breguq.cli.main(ARGV)` at least MIN_REPS times, and again until
another call would end more than SECONDS after the first began. Each
"{rep}" in ARGV is replaced by the repetition's index, so that every call
writes its own outputs. Stops at the first exit code other than 0.
RESULT_JSON gets, per call, the exit code, the wall and CPU time of the
call, its kernel CPU time and page faults, and the peak RSS of this
process so far. `breguq` must be importable (run.py puts the checkout's
`src/` on PYTHONPATH).

After each call, the process runs the control mix MIX (control.py) for a
tenth of the call's time. RESULT_JSON also gets the mix's mean time over
the whole run, `control_s`, and its nominal time.

With TRACE=1 every other call, starting with the first, is traced: the
public entry point of each layer, as bound in the module that calls it,
is replaced by a timing wrapper for the duration of the call and restored
afterwards; nothing under `src/` is edited. Spans stay in memory, and the
call's result gains the per-layer metrics derived from them.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from control import Control

# Time spent on the control mix after each call, as a share of the call's.
CONTROL_SHARE = 0.1


# (module, class or "", attribute, span name, info hook). The span name's
# prefix is the layer. Several bindings may share one span name: the
# generator forward is called through breguq.bregman, breguq.em and
# breguq.stats. A binding that does not exist is reported, not fatal.
ENTRY_POINTS = (
    ("breguq.cli", "", "make_ground_truth", "testbed.truth", None),
    ("breguq.cli", "", "make_bank", "testbed.make_bank", None),
    ("breguq.cli", "", "add_noise_to_snr", "testbed.noise", None),
    ("breguq.cli", "", "save_bank", "testbed.save_bank", None),
    ("breguq.cli", "", "load_bank", "testbed.load_bank", None),
    ("breguq.linops", "ComposeOp", "apply", "linops.apply", None),
    ("breguq.linops", "ComposeOp", "adjoint", "linops.adjoint", None),
    ("breguq.bregman", "", "project_intersection", "projections.intersection",
     lambda a, k, r: (int(r.sweeps), bool(r.converged))),
    ("breguq.cli", "", "run_bregman", "bregman.run", None),
    ("breguq.bregman", "", "bregman_step", "bregman.step",
     lambda a, k, r: bool(r[1].skipped)),
    ("breguq.bregman", "", "bregman_step_augmented", "bregman.step",
     lambda a, k, r: bool(r[1].skipped)),
    ("breguq.em", "", "bregman_step_augmented", "bregman.step",
     lambda a, k, r: bool(r[1].skipped)),
    ("breguq.bregman", "", "net_forward", "net.forward", None),
    ("breguq.em", "", "net_forward", "net.forward", None),
    ("breguq.stats", "", "net_forward", "net.forward", None),
    ("breguq.em", "", "net_eval_and_backward", "net.fwdbwd", None),
    ("breguq.sgld", "", "net_eval_and_backward", "net.fwdbwd", None),
    ("breguq.em", "", "sgld_run", "sgld.chain", None),
    ("breguq.cli", "", "train", "em.train", None),
    ("breguq.em", "", "e_step", "em.e_step", None),
    ("breguq.em", "", "m_step", "em.m_step", None),
    ("breguq.em", "", "save_checkpoint", "em.checkpoint", None),
    ("breguq.cli", "", "summarize", "stats.summarize",
     lambda a, k, r: int((k["samples"] if "samples" in k else a[0]).count)),
)

@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    self_s: float
    depth: int
    info: object

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Timing wrappers around layer entry points, with spans kept in memory.

    A span's self time is its duration minus the time of the spans it
    encloses. A call that re-enters the span it is already in (the
    augmented Bregman step at lam = 0 delegating to the plain step) is
    part of that span, not a new one.
    """

    def __init__(self):
        self.spans = []
        self.unbound = []
        self._open = []
        self._saved = []

    def install(self, entry_points=ENTRY_POINTS):
        for module_name, class_name, attr, *span in entry_points:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.unbound.append(".".join(filter(None, (module_name, class_name, attr))))
                continue
            setattr(owner, attr, self._wrap(original, *span))
            self._saved.append((owner, attr, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, info):
        opened = self._open
        spans = self.spans
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if opened and opened[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            depth = len(opened)
            opened.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                if opened:
                    opened[-1][1] += end - start
            spans.append(Span(name, start, end, end - start - frame[1], depth,
                              None if info is None else info(args, kwargs, result)))
            return result

        timed.__wrapped__ = fn
        return timed


def _quantile(values, q):
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(round(q * len(ordered))) - 1))]


def layer_metrics(spans, wall_s) -> dict:
    """Per-layer counts, latencies and self times of one traced command."""
    by_name = defaultdict(list)
    self_s = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        self_s[s.layer] += s.self_s

    def ms(name):
        return [1e3 * s.duration for s in by_name[name]]

    def total(name):
        return sum(s.duration for s in by_name[name])

    proj = by_name["projections.intersection"]
    steps = by_name["bregman.step"]
    e_steps = by_name["em.e_step"]
    # A round runs from one E-step's start to the next; the last round ends
    # with the training call.
    marks = [s.start for s in e_steps] + [s.end for s in by_name["em.train"]][-1:]
    rounds = [b - a for a, b in zip(marks, marks[1:])] if e_steps else []
    return {
        "linops.apply_calls": len(by_name["linops.apply"]),
        "linops.adjoint_calls": len(by_name["linops.adjoint"]),
        "linops.apply_ms_p50": _quantile(ms("linops.apply"), 0.5),
        "linops.adjoint_ms_p50": _quantile(ms("linops.adjoint"), 0.5),
        "linops.self_s": self_s["linops"],
        "projections.calls": len(proj),
        "projections.sweeps": sum(s.info[0] for s in proj),
        "projections.converged_frac": (sum(s.info[1] for s in proj) / len(proj)
                                       if proj else 0.0),
        "projections.ms_p50": _quantile(ms("projections.intersection"), 0.5),
        "projections.ms_p95": _quantile(ms("projections.intersection"), 0.95),
        "projections.self_s": self_s["projections"],
        "net.forward_calls": len(by_name["net.forward"]),
        "net.forward_ms_p50": _quantile(ms("net.forward"), 0.5),
        "net.fwdbwd_calls": len(by_name["net.fwdbwd"]),
        "net.fwdbwd_ms_p50": _quantile(ms("net.fwdbwd"), 0.5),
        "net.self_s": self_s["net"],
        "bregman.steps": len(steps),
        "bregman.step_ms_p50": _quantile(ms("bregman.step"), 0.5),
        "bregman.step_ms_p95": _quantile(ms("bregman.step"), 0.95),
        "bregman.skipped_frac": (sum(s.info for s in steps) / len(steps)
                                 if steps else 0.0),
        "bregman.self_s": self_s["bregman"],
        "sgld.chains": len(by_name["sgld.chain"]),
        "sgld.chain_ms_p50": _quantile(ms("sgld.chain"), 0.5),
        "sgld.self_s": self_s["sgld"],
        "em.round_s_p50": statistics.median(rounds) if rounds else 0.0,
        "em.e_step_s": total("em.e_step"),
        "em.m_step_s": total("em.m_step"),
        "em.m_step_calls": len(by_name["em.m_step"]),
        "em.checkpoint_s": total("em.checkpoint"),
        "em.self_s": self_s["em"],
        "testbed.load_bank_s": total("testbed.load_bank"),
        "testbed.save_bank_s": total("testbed.save_bank"),
        "testbed.self_s": self_s["testbed"],
        "stats.passes": len(by_name["stats.summarize"]),
        "stats.realizations": sum(s.info for s in by_name["stats.summarize"]),
        "stats.self_s": self_s["stats"],
        "cli.self_s": wall_s - sum(s.duration for s in spans if s.depth == 0),
    }


def run_once(cli_main, argv, traced) -> dict:
    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        code = cli_main(argv)
        t1 = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        tracer.restore()
    wall = t1 - t0
    result = {"exit_code": code, "traced": traced, "wall_s": wall,
              "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
              "sys_s": usage1.ru_stime - usage0.ru_stime,
              "minor_faults": usage1.ru_minflt - usage0.ru_minflt,
              "peak_rss_mb": usage1.ru_maxrss / 1024.0}
    if traced:
        result["layers"] = layer_metrics(tracer.spans, wall)
        result["unbound"] = tracer.unbound
    return result


def main(argv) -> int:
    result_path, trace, min_reps, seconds = argv[0], argv[1] == "1", int(argv[2]), float(argv[3])
    mix, template = argv[4], argv[5:]
    from breguq.cli import main as cli_main

    control = Control(mix)
    reps = []
    control.run_for(0.0)
    start = time.perf_counter()
    while True:
        i = len(reps)
        reps.append(run_once(cli_main, [a.replace("{rep}", str(i)) for a in template],
                             trace and i % 2 == 0))
        control.run_for(CONTROL_SHARE * reps[-1]["wall_s"])
        if reps[-1]["exit_code"] != 0:
            break
        spent = time.perf_counter() - start
        if len(reps) >= min_reps and \
                spent + statistics.median(r["wall_s"] for r in reps) > seconds:
            break
    with open(result_path, "w") as f:
        json.dump({"reps": reps, "control_s": control.seconds(),
                   "control_nominal_s": control.nominal_s}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
