"""Command-line entry point.

Subcommands: gen-data, train, eval, repeat, verify-equilibrium, grad-check.
Every command writes only under its --out directory; identical
(command, config, seed) triples produce byte-identical metric files.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import data as datamod
from . import equilibrium, gradcheck, metrics, trigan, variants
from .config import VARIANTS, RunConfig, load_config
from .fileio import atomic_open
from .nets import checkpoint_load, checkpoint_save

CHECKPOINT_NAMES = {"g_p": "Gp", "g_n": "Gn", "g_y": "Gy", "d_p": "Dp", "d_n": "Dn", "d_y": "Dy"}

GRAD_CHECK_TOLERANCE = 1e-4


def _build_dataset(cfg: RunConfig) -> datamod.LabeledDataset:
    spec = cfg.data
    if spec.kind == "toy-mixture":
        return datamod.gaussian_mixture(
            spec.n_per_class, spec.dim, spec.means, spec.cov_scale, spec.data_seed
        )
    if spec.kind == "corpus":
        loaded = datamod.load_claims(spec.path)
        pairs = datamod.make_pairs(loaded.records)
        ds = datamod.embed_pairs(pairs, spec.embed_dim, spec.embed_seed)
        if loaded.skipped_other_label or loaded.rejected_empty_evidence:
            print(
                f"corpus: skipped {loaded.skipped_other_label} third-label claims, "
                f"rejected {loaded.rejected_empty_evidence} without evidence"
            )
        return ds
    return datamod.load_dataset(spec.path)


def _build_splits(cfg: RunConfig):
    """(train, val, test) of the config's dataset; both depend only on the
    config, so a command builds them once for all its runs."""
    dataset = _build_dataset(cfg)
    splits = datamod.split(dataset, cfg.split, cfg.split_seed)
    for name, part in zip(("validation", "test"), splits[1:]):
        if not len(part):
            raise ValueError(
                f"split: the {name} split is empty ({len(dataset)} samples, "
                f"fractions {list(cfg.split)}); use more data or a larger fraction"
            )
    return splits


def _run_one(args, cfg: RunConfig, splits, seed: int, run_id: int, telemetry_name: str):
    """Train one model on _build_splits(cfg) and write its telemetry to
    `telemetry_name` under --out, also the rows before a failed iteration;
    returns (nets dict, final test metrics)."""
    train_ds, val_ds, test_ds = splits
    priors = cfg.priors or datamod.class_priors(train_ds)
    tcfg = cfg.train_config(seed=seed)
    try:
        if cfg.variant == "baseline":
            net, telemetry = variants.baseline_train(
                train_ds, tcfg, val_data=val_ds, run_id=run_id, hidden=cfg.hidden
            )
            nets = {"Gy": net}
        else:
            model = trigan.build_model(
                train_ds.dim, cfg.noise_dim, priors[0], priors[1], seed, hidden=cfg.hidden
            )
            model, telemetry = trigan.train(
                model, train_ds, tcfg, val_data=val_ds, run_id=run_id,
                step_fn=variants.STEP_FUNCTIONS[cfg.variant],
            )
            nets = {CHECKPOINT_NAMES[k]: v for k, v in model.nets().items()}
    except trigan.TrainingError as e:
        metrics.emit(e.records, _out_path(args, telemetry_name))
        raise
    metrics.emit(telemetry, _out_path(args, telemetry_name))
    try:
        _, preds = trigan.predict(nets["Gy"], test_ds.features)
    except ValueError as e:
        raise ValueError(f"test split: {e}") from e
    p, r, f1, _ = metrics.precision_recall_f1(preds, test_ds.labels)
    return nets, {"precision": p, "recall": r, "f1": f1}


def _out_path(args, name: str) -> str:
    """Path of `name` under --out. The directory is made on first use, so a
    command that fails before writing anything leaves none behind."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    dataset = _build_dataset(cfg)
    path = _out_path(args, "dataset.csv")
    datamod.save_dataset(dataset, path)
    print(f"wrote {len(dataset)} samples of dim {dataset.dim} to {path}")
    return 0


def cmd_train(args) -> int:
    cfg = _config_with_overrides(args)
    nets, final = _run_one(args, cfg, _build_splits(cfg), cfg.seed, 0, "telemetry.csv")
    checkpoint_save(nets, _out_path(args, "checkpoint.json"))
    print(
        f"test precision={final['precision']:.6f} recall={final['recall']:.6f} "
        f"f1={final['f1']:.6f}"
    )
    return 0


def cmd_eval(args) -> int:
    nets = checkpoint_load(args.checkpoint)
    if "Gy" not in nets:
        raise ValueError(f"{args.checkpoint}: checkpoint has no Gy net")
    if nets["Gy"].output_dim != 1:
        raise ValueError(f"{args.checkpoint}: Gy must map sample_dim -> 1")
    dataset = datamod.load_dataset(args.data)
    if len(dataset) == 0:
        raise ValueError(f"{args.data}: dataset file has no rows")
    if nets["Gy"].input_dim != dataset.dim:
        raise ValueError(
            f"{args.checkpoint}: Gy takes {nets['Gy'].input_dim} features, "
            f"but {args.data} has {dataset.dim}"
        )
    try:
        _, preds = trigan.predict(nets["Gy"], dataset.features)
    except ValueError as e:
        raise ValueError(f"{args.checkpoint}: Gy gives {e} on {args.data}") from e
    p, r, f1, degenerate = metrics.precision_recall_f1(preds, dataset.labels)
    rec = metrics.MetricsRecord(run=0, iter=0, precision=p, recall=r, f1=f1)
    metrics.emit([rec], _out_path(args, "metrics.csv"))
    flag = " (degenerate 0/0 case)" if degenerate else ""
    print(f"precision={p:.6f} recall={r:.6f} f1={f1:.6f}{flag}")
    return 0


def cmd_repeat(args) -> int:
    cfg = _config_with_overrides(args)
    splits = _build_splits(cfg)
    per_run = []
    for i in range(cfg.repeats):
        seed = cfg.seed + i
        try:
            nets, final = _run_one(args, cfg, splits, seed, i, f"telemetry_run{i}.csv")
        except ValueError as e:
            raise ValueError(f"run {i} (seed {seed}): {e}") from e
        checkpoint_save(nets, _out_path(args, f"checkpoint_run{i}.json"))
        per_run.append(final)
        print(
            f"run {i} (seed {seed}): precision={final['precision']:.6f} "
            f"recall={final['recall']:.6f} f1={final['f1']:.6f}"
        )
    agg = metrics.aggregate(per_run)
    summary_path = _out_path(args, "summary.csv")
    with atomic_open(summary_path) as f:
        f.write("metric,mean,std,runs\n")
        for k in ("precision", "recall", "f1"):
            f.write(f"{k},{agg.mean[k]!r},{agg.std[k]!r},{agg.n_runs}\n")
    for k in ("precision", "recall", "f1"):
        print(f"{k}: {agg.mean[k]:.4f} ± {agg.std[k]:.4f}")
    print(f"wrote {summary_path}")
    return 0


def cmd_verify_equilibrium(args) -> int:
    k = args.support_size
    if k is not None and k < 1:
        raise ValueError("--support-size: must be at least 1")
    if args.pp is not None:
        if k is not None and k != len(args.pp):
            raise ValueError(f"--support-size: {k}, but --pp has {len(args.pp)} masses")
        p_p = np.array(args.pp)
        p_n = np.array(args.pn) if args.pn is not None else p_p[::-1].copy()
    elif args.pn is not None:
        raise ValueError("--pn: needs --pp")
    else:
        k = k or 2  # one-hot masses on a support of 2 unless -k says otherwise
        equilibrium.grid_divisions(k, args.grid_step)  # before any mass vector of length k
        p_p, p_n = np.zeros(k), np.zeros(k)
        p_p[0] = p_n[min(1, k - 1)] = 1.0
    for flag, masses in (("--pp", p_p), ("--pn", p_n)):
        if len(masses) != len(p_p) or not datamod.is_distribution(masses):
            raise ValueError(f"{flag}: masses {masses.tolist()} must be {len(p_p)} values "
                             "in [0, 1] summing to 1")
    if not datamod.is_distribution((args.pi_p, 1.0 - args.pi_p)):
        raise ValueError(f"--pi-p: must lie in [0, 1], got {args.pi_p}")
    report = equilibrium.verify_equilibrium(p_p, p_n, args.pi_p, args.grid_step)
    print(f"p_p = {p_p.tolist()}, p_n = {p_n.tolist()}, pi_p = {args.pi_p}")
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_grad_check(args) -> int:
    if args.instances < 1:
        raise ValueError("--instances: must be at least 1")
    if args.seed < 0:
        raise ValueError("--seed: must be nonnegative")
    worst = gradcheck.check_all_gradients(args.seed, args.instances)
    overall = np.max(list(worst.values()))  # NaN-propagating, so a NaN error fails
    for name in sorted(worst):
        status = "ok" if worst[name] <= GRAD_CHECK_TOLERANCE else "FAIL"
        print(f"{name:30s} max rel err {worst[name]:.3e}  {status}")
    print(f"overall max relative error: {overall:.3e}")
    return 0 if overall <= GRAD_CHECK_TOLERANCE else 1


def _config_with_overrides(args) -> RunConfig:
    overrides = {"seed": args.seed, "variant": args.variant, "g_y_loss_mode": args.gy_loss}
    # replace() builds a new config, so every override is checked too
    return dataclasses.replace(
        load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )


def _add_run_args(p):
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--variant",
        choices=VARIANTS,
        default=None,
    )
    p.add_argument("--gy-loss", choices=trigan.G_Y_LOSS_MODES, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="claimgan")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="materialize a dataset file from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one model; writes checkpoint + telemetry")
    _add_run_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("repeat", help="R seeded runs plus a mean/std summary")
    _add_run_args(p)
    p.set_defaults(fn=cmd_repeat)

    p = sub.add_parser("verify-equilibrium", help="grid-check the equilibrium claims")
    p.add_argument("--support-size", "-k", type=int, default=None, help="default 2, or len(--pp)")
    p.add_argument("--grid-step", type=float, default=0.05)
    p.add_argument("--pi-p", type=float, default=0.5)
    p.add_argument("--pp", type=float, nargs="+", default=None, help="positive masses")
    p.add_argument("--pn", type=float, nargs="+", default=None, help="negative masses")
    p.set_defaults(fn=cmd_verify_equilibrium)

    p = sub.add_parser("grad-check", help="finite-difference check of every update rule")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=20)
    p.set_defaults(fn=cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as e:  # ConfigError is a ValueError
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
