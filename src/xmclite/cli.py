"""Command-line pipeline: train, predict, eval, simulate-batches.

Every configuration key (``config.KEYS``: the fields of ``RunConfig`` and
of the ``TrainConfig`` it nests) is a ``--key-name`` flag on
every command, with that field's help text and default; values can also come
from a ``--config`` key=value file, with command-line flags winning.  The
merged configuration is validated once, before any command runs.  Exit
codes: 0 success, 1 runtime abort (training/numeric failures), 2 usage or
configuration errors, including a path that cannot be read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .batching import BATCH_STATS_HEADER, batch_count, batch_stats
from .config import KEYS, RunConfig, build_config, parse_config_file
from .data import Dataset, Vocabulary, load_dataset
from .errors import (ConfigError, DatasetFormatError, DegenerateEmbeddingError,
                     TrainingAbort, XmcliteError)
from .fileio import atomic_open
from .infer import build_index, predict, read_predictions, write_predictions
from .metrics import metrics_report, propensity
from .model import init_params, load_checkpoint
from .negatives import HardNegativeCache
from .train import (TRAIN_DTYPE, check_inputs, negative_cache_size, refresh,
                    train, training_features)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="key=value config file (flags override it)")
    for key in KEYS.values():
        default = (",".join(map(str, key.default))
                   if isinstance(key.default, tuple) else repr(key.default))
        parser.add_argument("--" + key.name.replace("_", "-"), dest=key.name,
                            metavar=key.name.upper(), default=argparse.SUPPRESS,
                            help=f"{key.help} (default: {default})")


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set]:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {name: getattr(args, name) for name in KEYS
                 if hasattr(args, name)}
    return build_config(file_values, overrides)


def _require(config: RunConfig, *keys: str) -> None:
    for key in keys:
        if not getattr(config, key):
            raise ConfigError(f"{key} is required")


def _load(config: RunConfig, queries_path: str, vocab: Vocabulary) -> Dataset:
    return load_dataset(queries_path, config.labels_path, vocab=vocab)


def _out_path(config: RunConfig, explicit: str, default_name: str) -> str:
    if explicit:
        return explicit
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, default_name)


def cmd_train(config: RunConfig, explicit: set) -> int:
    _require(config, "queries_path", "labels_path")
    vocab = Vocabulary(config.train.hash_dim)
    dataset = _load(config, config.queries_path, vocab)
    eval_dataset = (_load(config, config.eval_queries_path, vocab)
                    if config.eval_queries_path else None)
    # a run rejected before its first step leaves no empty out_dir behind
    check_inputs(dataset, config.train, eval_dataset)
    log_path = _out_path(config, config.log_path, "train_log.jsonl")
    ckpt_path = _out_path(config, config.checkpoint_path, "checkpoint.bin")
    # a diverging run ends in TrainingAbort; numpy's warnings would bury it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        params, report = train(dataset, config.train, log_path=log_path,
                               checkpoint_path=ckpt_path,
                               eval_dataset=eval_dataset)
    last = report.records[-1]
    print(f"trained {config.train.epochs} epochs in {report.wall_seconds:.1f}s; "
          f"final loss {last['total']:.6f}")
    print(f"checkpoint: {ckpt_path}")
    print(f"log: {log_path}")
    if report.final_metrics:
        print(json.dumps(report.final_metrics, sort_keys=True))
    return 0


def _checked_params(config: RunConfig, explicit: set):
    _require(config, "checkpoint_path")
    params, _ = load_checkpoint(config.checkpoint_path)
    for key, value in (("hash_dim", params.hash_dim),
                       ("encoder_dim", params.encoder_dim),
                       ("search_dim", params.search_dim)):
        if key in explicit and getattr(config.train, key) != value:
            raise ConfigError(
                f"{key}={getattr(config.train, key)} conflicts with checkpoint "
                f"({key}={value})")
    return params


def cmd_predict(config: RunConfig, explicit: set) -> int:
    _require(config, "queries_path", "labels_path")
    params = _checked_params(config, explicit)
    vocab = Vocabulary(params.hash_dim)
    query_file = config.eval_queries_path or config.queries_path
    dataset = _load(config, query_file, vocab)
    if dataset.num_labels != params.num_labels:
        raise ConfigError(
            f"dataset has {dataset.num_labels} labels but checkpoint was "
            f"trained with {params.num_labels}")
    index = build_index(params, dataset, config.mode)
    results = predict(index, params, dataset.instance_texts, vocab,
                      config.top_k)
    out = _out_path(config, config.predictions_path, "predictions.tsv")
    write_predictions(out, results)
    print(f"wrote {sum(len(r[0]) for r in results)} rows for "
          f"{len(results)} queries to {out}")
    return 0


def cmd_eval(config: RunConfig, explicit: set) -> int:
    _require(config, "queries_path", "labels_path", "predictions_path")
    vocab = Vocabulary(config.train.hash_dim)
    train_ds = _load(config, config.queries_path, vocab)
    eval_ds = (_load(config, config.eval_queries_path, vocab)
               if config.eval_queries_path else train_ds)
    by_query = read_predictions(config.predictions_path)
    for qid, rows in by_query.items():
        if qid < 0 or qid >= eval_ds.num_instances:
            raise ConfigError(
                f"{config.predictions_path}: query id {qid} outside the "
                f"evaluated dataset (N={eval_ds.num_instances})")
        for lab, _ in rows:
            if lab < 0 or lab >= eval_ds.num_labels:
                raise ConfigError(
                    f"{config.predictions_path}: query id {qid} has label id "
                    f"{lab} outside the label set (L={eval_ds.num_labels})")
    ranked = [np.asarray([lab for lab, _ in by_query.get(i, [])], dtype=np.int64)
              for i in range(eval_ds.num_instances)]
    props = propensity(train_ds.label_frequencies, train_ds.num_instances,
                       config.train.propensity_a, config.train.propensity_b)
    report = metrics_report(ranked, eval_ds.positive_sets(), props,
                            config.train.eval_k)
    out = _out_path(config, config.metrics_path, "metrics.json")
    with atomic_open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def cmd_simulate_batches(config: RunConfig, explicit: set) -> int:
    _require(config, "queries_path", "labels_path")
    cfg = config.train
    # the refresh ``train`` would make: parameters and feature rows in its
    # dtype (exact for a checkpoint that training wrote)
    if config.checkpoint_path:
        params = _checked_params(config, explicit).astype(TRAIN_DTYPE)
    else:
        params = init_params(cfg.hash_dim, cfg.encoder_dim, cfg.search_dim, 1,
                             cfg.seed, cfg.dropout, TRAIN_DTYPE)
    vocab = Vocabulary(params.hash_dim)
    dataset = _load(config, config.queries_path, vocab)
    num_batches = batch_count(dataset, cfg.batch_size)
    # One refresh for every cap pair.  Mining ranks by (score, id), a total
    # order, so each smaller cache is the head of the largest one's lists.
    sizes = {cap: negative_cache_size(cap, cfg.refresh_interval)
             for cap in config.sim_negative_caps if cap > 0}
    plan, cache, _ = refresh(
        params, training_features(dataset.instance_texts, vocab),
        training_features(dataset.label_texts, vocab), dataset.positive_sets(),
        num_batches, cfg.seed, 0, max(sizes.values(), default=0))
    caches = {cap: HardNegativeCache.from_lists(
        [n[:size] for n in cache.negatives])
              for cap, size in sizes.items()}

    lines = [BATCH_STATS_HEADER]
    for pos_cap in config.sim_positive_caps:
        for neg_cap in config.sim_negative_caps:
            stats = batch_stats(dataset, plan, caches.get(neg_cap), pos_cap,
                                neg_cap, cfg.seed)
            lines.append(stats.csv_row())
    out = _out_path(config, "", "batch_stats.csv")
    with atomic_open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


_COMMANDS = {
    "train": (cmd_train, "train a model and write checkpoint + log"),
    "predict": (cmd_predict, "rank labels for queries with a checkpoint"),
    "eval": (cmd_eval, "score a predictions file against ground truth"),
    "simulate-batches": (cmd_simulate_batches,
                         "report batch label-pool statistics"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xmclite", allow_abbrev=False,
        description="Desk-scale extreme multi-label classification engine.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        # No prefix matching: ``--search`` must not stand for ``--search-dim``.
        cmd_parser = sub.add_parser(name, help=help_text, allow_abbrev=False)
        _add_config_flags(cmd_parser)
    return parser


def main(argv: list | None = None) -> int:
    try:
        return _dispatch(argv)
    except BrokenPipeError:
        # The reader of stdout left early (``| head``).  Point the descriptor
        # at devnull so the interpreter's final flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _dispatch(argv: list | None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code) if exc.code is not None else 0

    try:
        config, explicit = resolve_config(args)
        return _COMMANDS[args.command][0](config, explicit)
    except BrokenPipeError:
        raise                   # ``main`` quiets a closed stdout
    except (ConfigError, DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingAbort, DegenerateEmbeddingError) as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 1
    except XmcliteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
