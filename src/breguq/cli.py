"""Command-line driver.

Subcommands: gen | invert | train | sample | stats | check. Every command
is a pure function of its config and input files: reruns with identical
seeds produce byte-identical outputs. `main` loads and validates the whole
config first (`load_config`), then creates `--out`, runs the command on
the built config objects, and writes the fully resolved config that
produced the run, `resolved.cfg`, after the command succeeds.

Exit codes: 0 success, 1 property-check failure, 2 usage/config error,
malformed or missing input file, or a path of the wrong kind (a directory
where a file belongs, or a file where a directory does), which leaves no
`--out` that the run created, 3 numerical abort. A numerical abort also
writes `<out>/abort.json` with the message and the solver's diagnostics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys

import numpy as np

from .bregman import TraceRecord, initial_state, run_bregman
from .config import in_section, load_config, write_resolved
from .em import check_prior, train
from .errors import ConfigError, InputFormatError, NumericalAbortError
from .net import net_init
from .stats import (SampleSet, auto_probes, calibration, draw_latents, load_weights,
                    model_quality, read_portable_grid, summarize, write_histograms_csv,
                    write_portable_grid, write_records, write_table)
from .testbed import (add_noise_to_snr, load_bank, make_bank, make_ground_truth,
                      save_bank)

__all__ = ["main", "entry"]


def cmd_gen(args, config) -> int:
    out = args.out
    t = lambda key: config.get("testbed", key)
    with in_section("testbed"):
        truth = make_ground_truth((t("rows"), t("cols")), t("truth_seed"))
        clean = make_bank(truth, t("experiments"), config.kernel, t("sampling_fraction"),
                          t("mask_seed"))
        noisy, report = add_noise_to_snr(clean, config.noise, t("noise_seed"))
    save_bank(out, noisy, manifest_extra={"snr_report": report})
    write_portable_grid(truth, os.path.join(out, "truth_delta.pgrd"))
    print(f"measured snr_db: {report['measured_snr_db']}")
    return 0


def _read_truth(path, shape):
    """The truth grid at `path`, which must be non-zero and of `shape`."""
    truth = read_portable_grid(path)
    if truth.shape != tuple(shape) or not truth.any():
        raise InputFormatError(f"{path}: the truth grid must be non-zero and of the "
                               f"shape {tuple(shape)}, got {truth.shape}")
    return truth


def cmd_invert(args, config) -> int:
    out, b = args.out, lambda key: config.get("bregman", key)
    bank, _ = load_bank(args.bank)
    truth_path = os.path.join(args.bank, "truth_delta.pgrd")
    truth = _read_truth(truth_path, bank.shape) if os.path.exists(truth_path) else None
    state, trace = run_bregman(bank, config.stack, initial_state(bank.shape),
                               range(bank.n), b("iterations"), b("draw_seed"),
                               t_max=b("t_max"))
    write_portable_grid(state.x_primal, os.path.join(out, "x_primal.pgrd"))
    write_portable_grid(state.x_dual, os.path.join(out, "x_dual.pgrd"))
    write_records(os.path.join(out, "trace.csv"), TraceRecord, trace)
    if truth is not None:
        quality = model_quality(state.x_primal, truth)
        write_table(os.path.join(out, "quality.csv"), ["metric", "value"], quality.items())
    return 0


def cmd_train(args, config) -> int:
    bank, _ = load_bank(args.bank)
    train(bank, config.stack, config.arch, config.train, stack_final=config.stack_final,
          run_dir=args.out, resume_from=args.resume)
    return 0


def _checkpoint_weights(path, arch, prior=None):
    """The weights of a `.dpnw` file, or of a run directory that passes
    `check_prior(path, arch, prior)`."""
    if os.path.isdir(path):
        check_prior(path, arch, prior)
        path = os.path.join(path, "weights.dpnw")
    return load_weights(path, arch)


def _latents(config, count):
    """The latents of the configured sample stream: row j is the same in
    every command and pass that reads it."""
    return draw_latents(config.arch.latent_dim, count, config.get("stats", "sample_seed"))


def cmd_sample(args, config) -> int:
    count = config.get("stats", "sample_count")
    w = _checkpoint_weights(args.checkpoint, config.arch)
    samples = SampleSet(config.arch, w, _latents(config, count))
    for j in range(count):
        x = samples.realization(j)
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise NumericalAbortError("non-finite realization", diagnostics={
                "sample": j, "pixel": divmod(int(bad[0]), x.shape[1])})
        write_portable_grid(x, os.path.join(args.out, f"sample_{j:04d}.pgrd"))
    return 0


def _summarize(name, samples):
    """`summarize` for the pass `name` of `stats`; an abort names the pass."""
    try:
        return summarize(samples)
    except NumericalAbortError as exc:
        raise NumericalAbortError(f"{exc} in the {name} pass",
                                  diagnostics={"pass": name, **exc.diagnostics}) from None


def cmd_stats(args, config) -> int:
    out, arch, tc = args.out, config.arch, config.train
    s = lambda key: config.get("stats", key)
    w_post = _checkpoint_weights(args.checkpoint, arch, tc)
    truth = None if args.truth is None else _read_truth(args.truth, arch.out_shape)
    w_prior = net_init(arch, tc.init_seed, tc.init_scale)
    latents = _latents(config, s("samples"))
    posterior = SampleSet(arch, w_post, latents)
    prior = SampleSet(arch, w_prior, latents)
    post = _summarize("posterior", posterior)
    pri = _summarize("prior", prior)
    probes = auto_probes(post.std) if config.probes is None else config.probes

    write_portable_grid(post.mean, os.path.join(out, "mean.pgrd"))
    write_portable_grid(post.std, os.path.join(out, "std.pgrd"))
    write_portable_grid(pri.mean, os.path.join(out, "prior_mean.pgrd"))
    write_portable_grid(pri.std, os.path.join(out, "prior_std.pgrd"))

    for name, samples in (("posterior", posterior), ("prior", prior)):
        values = dict(zip(probes, samples.probe_values(probes).T))
        write_histograms_csv(values, s("bins"), os.path.join(out, f"hist_{name}.csv"))
    if truth is not None:
        quality = {**model_quality(post.mean, truth), **calibration(post.mean, post.std, truth)}
        write_table(os.path.join(out, "quality.csv"), ["metric", "value"], quality.items())
    return 0


def cmd_check(args, config) -> int:
    # imported here: its oracles load scipy.optimize, which no other command needs
    from . import checks

    results = checks.run_property_suite()
    width = max(len(r.name) for r in results)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="breguq",
        description="Constrained stochastic Bregman imaging with a weak deep prior")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed overriding every configured seed")
        if out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen", help="generate the synthetic testbed")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("invert", help="plain stochastic Bregman inversion")
    common(p)
    p.add_argument("--bank", required=True, help="directory produced by gen")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("train", help="run the full training loop")
    common(p)
    p.add_argument("--bank", required=True, help="directory produced by gen")
    p.add_argument("--resume", default=None,
                   help="train output directory to resume from (may equal --out)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="write generator realizations")
    common(p)
    p.add_argument("--checkpoint", required=True,
                   help="weights file or train output directory")
    p.add_argument("--count", type=int, default=None,
                   help="realizations to write, overriding [stats] sample_count")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="posterior mean/std grids and pixel histograms")
    common(p)
    p.add_argument("--checkpoint", required=True,
                   help="weights file or train output directory")
    p.add_argument("--truth", default=None, help="truth grid for quality metrics")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("check", help="run the property self-checks")
    common(p, out=False)
    p.set_defaults(func=cmd_check)
    return parser


def _jsonable(value):
    """Strict-JSON form of abort diagnostics: dataclasses become objects,
    arrays lists, and non-finite floats the strings "nan", "inf", "-inf"."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        return _jsonable(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _write_abort(out, exc: NumericalAbortError) -> None:
    report = {"message": str(exc), "diagnostics": _jsonable(exc.diagnostics)}
    with open(os.path.join(out, "abort.json"), "w") as f:
        json.dump(report, f, allow_nan=False, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    out = getattr(args, "out", None)
    created = out is not None and not os.path.isdir(out)
    try:
        config = load_config(args.config, args.seed, getattr(args, "count", None))
        if out is not None:
            os.makedirs(out, exist_ok=True)
        code = args.func(args, config)
        if out is not None:
            write_resolved(config, os.path.join(out, "resolved.cfg"))
        return code
    except (ConfigError, InputFormatError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError, FileExistsError) as exc:
        kind = ("config error" if isinstance(exc, ConfigError) else
                "input error" if isinstance(exc, InputFormatError) else
                "missing input" if isinstance(exc, FileNotFoundError) else "bad path")
        print(f"{kind}: {exc}", file=sys.stderr)
        if created and os.path.isdir(out):
            shutil.rmtree(out)
        return 2
    except NumericalAbortError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        if out is not None:
            _write_abort(out, exc)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
