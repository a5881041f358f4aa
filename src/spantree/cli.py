"""Command-line entry point.

One executable, ten subcommands covering the pipeline: generate data, train
(transduction or masked-token), dump SCI charts, project trees, score trees,
train the bracketing probe, and run the perturbation / span-gap / dynamics
analyses.  Each setting has one entry in ``SETTINGS``, its default and
meaning.  ``main`` resolves the subcommand's settings once, in three layers:
built-in defaults, then a flat ``key = value`` config file (unknown keys
rejected), then command-line flags; ``dynamics`` puts the ``eval_limit``
that ``train`` recorded in the run directory between the first two.
The single top-level seed (flag > SPANTREE_SEED env > config > default) is
expanded per component through sha256.  ``gen-data``, ``train``,
``train-mlm``, ``project`` and ``probe`` write the fully resolved settings
they ran with to ``resolved-config.txt`` in their output directory, only
once every setting has been checked (``train``, ``train-mlm`` and ``probe``
by their trainer), so a refused run leaves none.

Exit codes: 0 success, 1 contract violation (bad inputs, malformed files,
diverged training), 2 I/O failure.  Commands run with numpy's floating-point
warnings off: an overflow or NaN that reaches a result is refused by the
package's own finiteness checks, with an ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import sys

import numpy as np

from . import datasets, treeval
from .encoder import EncoderConfig, load_checkpoint, save_checkpoint
from .errors import ContractViolation, numbered_lines
from .experiments import (
    assumption_gap,
    dynamics_report,
    perturbation_analysis,
    write_dynamics_csv,
    write_gap_csv,
    write_perturb_csv,
)
from .projector import exact_project, greedy_project
from .spanrep import build_sci_chart
from .training import EVAL_LIMIT, load_series, train_mlm, train_probe, train_seq2seq

log = logging.getLogger("spantree.cli")

SEED_ENV = "SPANTREE_SEED"

# Each settings key's default and meaning.  The default's type is the key's:
# config values and flags are cast to it.  A flag's help text is the meaning
# followed by the default.
SETTINGS = {
    "seed": (0, f"top-level seed, expanded per component; without the flag, {SEED_ENV} "
                "or the config file sets it"),
    "steps": (3000, "training steps"),
    "checkpoint_every": (200, "steps between saved checkpoints"),
    "batch_size": (32, "examples per training batch"),
    "lr": (3e-4, "peak learning rate"),
    "warmup": (300, "learning-rate warmup steps"),
    "weight_decay": (0.01, "AdamW weight decay"),
    "d_model": (64, "model width"),
    "heads": (4, "attention heads per layer"),
    "enc_layers": (2, "encoder layers"),
    "dec_layers": (2, "decoder layers"),
    "d_ff": (256, "feed-forward width"),
    "max_len": (64, "longest sequence the model takes, in tokens"),
    "count": (3000, "expressions to generate"),
    "depth_min": (1, "smallest expression depth"),
    "depth_max": (3, "largest expression depth"),
    "alphabet": (20, "distinct leaf symbols"),
    "val_frac": (0.1, "fraction of the seen examples held out as iid validation"),
    "threshold": (1, "SCI threshold t: layers from t up see only the span"),
    "mode": ("greedy", "tree projection, greedy or exact"),
    "samples_per_node": (4, "random split points per node in the t-score baseline"),
    "pairs": (500, "sampled perturbation pairs"),
    "sigma2": (0.01, "variance of the added noise"),
    "span_samples": (50, "spans sampled per sentence"),
    "eval_limit": (EVAL_LIMIT, "examples scored per split for accuracy"),
    "eval_sentences": (40, "iid validation sentences charted per checkpoint"),
    "tune_sentences": (16, "train sentences used to tune the threshold"),
    "probe_steps": (1500, "bracketing probe training steps"),
    "fixed_t": (1, "threshold when --threshold-mode is fixed"),
    "sentences": (40, "iid validation sentences analysed"),
    "index": (0, "which input sentence to chart, counted from 0"),
    "mask_frac": (0.15, "fraction of tokens masked per sentence"),
    "threshold_mode": ("fixed", "fixed, or tuned per checkpoint by parseval or score"),
}


def component_seed(seed: int, name: str) -> int:
    """Stable per-component seed derived from the top-level seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _config_lines(path: str):
    """``(lineno, key, value)`` per ``key = value`` line of a flat settings
    file; blank lines and # comments allowed."""
    for lineno, raw in numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def _cast(path: str, lineno: int, key: str, value: str):
    try:
        return type(SETTINGS[key][0])(value)
    except ValueError as exc:
        raise ContractViolation(f"{path}:{lineno}: bad value for {key}: {value!r}") from exc


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments allowed."""
    values = {}
    for lineno, key, value in _config_lines(path):
        if key not in SETTINGS:
            raise ContractViolation(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _cast(path, lineno, key, value)
    return values


def _recorded_eval_limit(run_dir: str) -> dict:
    """``{"eval_limit": N}`` from the ``resolved-config.txt`` that ``train``
    wrote in ``run_dir``, or {} without that file or line (a ``train-mlm``
    run scores at ``EVAL_LIMIT``).  No other key is read, so a record
    written by another version still loads."""
    path = os.path.join(run_dir, "resolved-config.txt")
    if not os.path.exists(path):
        return {}
    return {key: _cast(path, lineno, key, value)
            for lineno, key, value in _config_lines(path) if key == "eval_limit"}


def resolve_settings(args: argparse.Namespace) -> dict:
    """The subcommand's settings (``args.settings_keys``, stored by
    ``build_parser``): defaults < the eval limit a ``dynamics`` run recorded
    < config file < flags; seed: flag > env > config > default."""
    wanted = args.settings_keys
    settings = {key: SETTINGS[key][0] for key in wanted}
    if args.command == "dynamics":
        settings.update(_recorded_eval_limit(args.run_dir))
    from_file = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in wanted:
        if key in from_file:
            settings[key] = from_file[key]
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if "seed" in wanted:
        if getattr(args, "seed", None) is not None:
            settings["seed"] = args.seed
        elif os.environ.get(SEED_ENV):
            try:
                settings["seed"] = int(os.environ[SEED_ENV])
            except ValueError as exc:
                raise ContractViolation(
                    f"{SEED_ENV} must be an integer, got {os.environ[SEED_ENV]!r}"
                ) from exc
        elif "seed" in from_file:
            settings["seed"] = from_file["seed"]
    return settings


def write_resolved(run_dir: str, settings: dict) -> None:
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "resolved-config.txt"), "w", encoding="utf-8") as fh:
        for key in sorted(settings):
            fh.write(f"{key} = {settings[key]}\n")
    log.info("resolved settings: %s", settings)


def _finite(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _write_json(payload: dict, path: str | None = None) -> None:
    """Indented, key-sorted JSON to ``path``, or to stdout without one.
    Non-finite floats (a rank correlation of a constant series, say) are
    written as null, since JSON has no NaN or Infinity."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(_finite(payload), fh, indent=1, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _reports_dir(run_dir: str) -> str:
    path = os.path.join(run_dir, "reports")
    os.makedirs(path, exist_ok=True)
    return path


def _encoder_config(s: dict, dec_layers: int | None = None) -> EncoderConfig:
    return EncoderConfig(
        enc_layers=s["enc_layers"],
        dec_layers=s["dec_layers"] if dec_layers is None else dec_layers,
        heads=s["heads"],
        d_model=s["d_model"],
        d_ff=s["d_ff"],
        max_len=s["max_len"],
    )


def _trainer_args(args, s: dict) -> dict:
    """The trainer arguments ``train`` and ``train-mlm`` share; the run's
    settings are recorded once the trainer has checked them."""
    return {
        "steps": s["steps"],
        "checkpoint_every": s["checkpoint_every"],
        "batch_size": s["batch_size"],
        "base_lr": s["lr"],
        "warmup_steps": s["warmup"],
        "weight_decay": s["weight_decay"],
        "out_dir": os.path.join(args.run_dir, "checkpoints"),
        "on_start": lambda: write_resolved(args.run_dir, s),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args, s) -> int:
    examples = datasets.generate_expressions(
        s["count"],
        depth_range=(s["depth_min"], s["depth_max"]),
        seed=component_seed(s["seed"], "data"),
        alphabet_size=s["alphabet"],
    )
    corpus = datasets.make_cg_split(
        examples,
        datasets.DEFAULT_UNSEEN,
        seed=component_seed(s["seed"], "split"),
        val_frac=s["val_frac"],
    )
    write_resolved(args.out, s)
    datasets.save_corpus(corpus, args.out)
    _write_json(
        {
            "out": args.out,
            "train": len(corpus.train),
            "iid_val": len(corpus.iid_val),
            "cg_test": len(corpus.cg_test),
            "vocab": len(corpus.vocab),
        }
    )
    return 0


def cmd_train(args, s) -> int:
    corpus = datasets.load_corpus(args.data)
    series = train_seq2seq(
        _encoder_config(s),
        corpus,
        seed=component_seed(s["seed"], "train"),
        eval_limit=s["eval_limit"],
        **_trainer_args(args, s),
    )
    final = series[-1]
    payload = {
        "checkpoints": len(series),
        "final_step": final.step,
        "final_train_loss": final.train_loss,
        "final_iid_acc": final.iid_acc,
        "final_cg_acc": final.cg_acc,
    }
    _write_json(payload, os.path.join(_reports_dir(args.run_dir), "train.json"))
    _write_json(payload)
    return 0


def cmd_train_mlm(args, s) -> int:
    corpus = datasets.load_corpus(args.data)
    series = train_mlm(
        _encoder_config(s, dec_layers=0),
        corpus,
        seed=component_seed(s["seed"], "train-mlm"),
        mask_frac=s["mask_frac"],
        **_trainer_args(args, s),
    )
    final = series[-1]
    _write_json(
        {
            "checkpoints": len(series),
            "final_step": final.step,
            "final_train_loss": final.train_loss,
            "final_masked_acc_iid": final.iid_acc,
            "final_masked_acc_cg": final.cg_acc,
        }
    )
    return 0


def _known_ids(tokens: list[str], vocab, where: str) -> list[int]:
    """Token ids, refusing a word the checkpoint never saw: ``Vocab.encode``
    would map it to ``<unk>`` without a word.  Positions count from 0, as
    chart spans and ``--index`` do."""
    for pos, tok in enumerate(tokens):
        if tok not in vocab.token_to_id:
            raise ContractViolation(
                f"{where}: token {tok!r} at position {pos} is not in the checkpoint's vocabulary"
            )
    return vocab.encode(tokens)


def _input_sentences(args, vocab) -> list[tuple[list[str], list[int]]]:
    if getattr(args, "sentence", None):
        tokens = args.sentence.split()
        return [(tokens, _known_ids(tokens, vocab, "--sentence"))]
    if not getattr(args, "input", None):
        raise ContractViolation("need --input FILE or --sentence \"tok tok ...\"")
    examples = datasets.load_tsv(args.input)
    if not examples:
        raise ContractViolation(f"{args.input} holds no sentences")
    return [
        (ex.source, _known_ids(ex.source, vocab, f"{args.input}, sentence {i}"))
        for i, ex in enumerate(examples)
    ]


def cmd_chart(args, s) -> int:
    model = load_checkpoint(args.checkpoint)
    sentences = _input_sentences(args, model.vocab)
    if not 0 <= s["index"] < len(sentences):
        raise ContractViolation(f"--index {s['index']} outside input of {len(sentences)}")
    _, ids = sentences[s["index"]]
    chart = build_sci_chart(model, ids, s["threshold"])
    payload = {
        "n": chart.n,
        "t": chart.threshold,
        "checkpoint": args.checkpoint,
        "entries": [[i, j, float(chart.values[i, j])] for i, j in chart.spans()],
    }
    _write_json(payload, args.out)
    return 0


def cmd_project(args, s) -> int:
    if s["mode"] not in ("greedy", "exact"):
        raise ContractViolation(f"--mode must be greedy or exact, got {s['mode']!r}")
    model = load_checkpoint(args.checkpoint)
    sentences = _input_sentences(args, model.vocab)
    # every row draws, in sentence order, from the one stream t_score uses,
    # so t_score is exactly the rows' mean
    rng = np.random.default_rng(component_seed(s["seed"], "t_score"))
    rows, projected = [], []
    for idx, (_, ids) in enumerate(sentences):
        chart = build_sci_chart(model, ids, s["threshold"])
        if s["mode"] == "greedy":
            result = greedy_project(chart, rng, samples_per_node=s["samples_per_node"])
            tree = result.tree
            rows.append(
                {
                    "index": idx,
                    "n": chart.n,
                    "cumulative_sci": result.cumulative_sci,
                    "normalized_score": result.normalized_score,
                }
            )
        else:
            tree, best = exact_project(chart)
            rows.append({"index": idx, "n": chart.n, "cumulative_sci": best})
        projected.append(tree)
    write_resolved(args.out_dir, s)
    treeval.save_trees(os.path.join(args.out_dir, "trees.sexpr"), projected,
                       [tokens for tokens, _ in sentences])
    scores = {"mode": s["mode"], "threshold": s["threshold"], "sentences": rows}
    if s["mode"] == "greedy":
        scores["t_score"] = float(np.mean([row["normalized_score"] for row in rows]))
    _write_json(scores, os.path.join(args.out_dir, "scores.json"))
    _write_json(
        {"out_dir": args.out_dir, "sentences": len(rows), "mode": s["mode"],
         "threshold": s["threshold"]}
    )
    return 0


def cmd_eval_trees(args, s) -> int:
    pred = treeval.load_trees(args.pred)
    gold = treeval.load_trees(args.gold)
    if not gold:
        raise ContractViolation(f"{args.gold} holds no trees")
    if len(pred) != len(gold):
        raise ContractViolation(
            f"{len(pred)} predicted trees vs {len(gold)} gold trees"
        )
    include_root = not args.exclude_root
    precision, recall, f1 = treeval.corpus_parseval(
        list(zip(pred, gold)), include_root=include_root
    )
    _write_json(
        {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "sentences": len(pred),
            "include_root": include_root,
        }
    )
    return 0


def cmd_probe(args, s) -> int:
    encoder = load_checkpoint(args.checkpoint)
    corpus = datasets.load_corpus(args.data)
    result = train_probe(
        encoder,
        corpus.train,
        corpus.iid_val,
        steps=s["probe_steps"],
        seed=component_seed(s["seed"], "probe"),
        batch_size=s["batch_size"],
        base_lr=s["lr"],
        warmup_steps=s["warmup"],
        on_start=lambda: write_resolved(args.run_dir, s),
    )
    save_checkpoint(result.probe, os.path.join(args.run_dir, "checkpoints", "probe"))
    payload = {
        "p_parseval": result.p_parseval,
        "precision": result.precision,
        "recall": result.recall,
        "repaired": result.repaired,
        "coerced": result.coerced,
        "heldout": result.heldout,
    }
    _write_json(payload, os.path.join(_reports_dir(args.run_dir), "probe.json"))
    _write_json(payload)
    return 0


def _first_sentences(items: list, count: int) -> list:
    """The first ``--sentences`` items; a count below 1 is rejected, since a
    negative slice would silently drop items from the end instead."""
    if count < 1:
        raise ContractViolation(f"--sentences must be >= 1, got {count}")
    return items[:count]


def cmd_perturb(args, s) -> int:
    model = load_checkpoint(args.checkpoint)
    corpus = datasets.load_corpus(args.data)
    examples = _first_sentences(
        [ex for ex in corpus.iid_val if ex.tree is not None], s["sentences"]
    )
    if not examples:
        raise ContractViolation("perturb: no evaluation examples with gold trees")
    report = perturbation_analysis(
        model,
        [model.vocab.encode(ex.source) for ex in examples],
        [ex.tree for ex in examples],
        sigma2=s["sigma2"],
        pairs=s["pairs"],
        seed=component_seed(s["seed"], "perturb"),
    )
    write_perturb_csv(report, args.out)
    _write_json(
        {
            "delta_ic": report.main.delta_ic,
            "delta_oc": report.main.delta_oc,
            "relative_difference": report.main.relative_difference,
            "t": report.main.t_stat,
            "p": report.main.p_value,
            "control_relative_difference": report.control.relative_difference,
            "control_p": report.control.p_value,
            "pairs": report.main.n_pairs,
            "out": args.out,
        }
    )
    return 0


def cmd_gap(args, s) -> int:
    model = load_checkpoint(args.checkpoint)
    corpus = datasets.load_corpus(args.data)
    sentences = [ex.source for ex in _first_sentences(corpus.iid_val, s["sentences"])]
    report = assumption_gap(
        model,
        sentences,
        span_samples=s["span_samples"],
        seed=component_seed(s["seed"], "gap"),
    )
    write_gap_csv(report, args.out)
    gaps = [r.gap for r in report.records]
    controls = [r.control_gap for r in report.records if np.isfinite(r.control_gap)]
    _write_json(
        {
            "spans": len(report.records),
            "mean_gap": float(np.mean(gaps)) if gaps else None,
            "mean_control_gap": float(np.mean(controls)) if controls else None,
            "skipped_single": report.skipped_single,
            "optimality_holds": all(
                r.sum_to_vstar <= r.sum_to_vtilde + 1e-12 for r in report.records
            ),
            "out": args.out,
        }
    )
    return 0


def cmd_dynamics(args, s) -> int:
    if args.probe and s["probe_steps"] < 1:
        raise ContractViolation(f"--probe needs probe_steps >= 1, got {s['probe_steps']}")
    corpus = datasets.load_corpus(args.data)
    series = load_series(os.path.join(args.run_dir, "checkpoints"))
    mode = s["threshold_mode"]
    result = dynamics_report(
        series,
        corpus,
        threshold_mode=mode,
        fixed_t=s["fixed_t"],
        eval_sentences=s["eval_sentences"],
        tune_sentences=s["tune_sentences"],
        samples_per_node=s["samples_per_node"],
        seed=component_seed(s["seed"], "dynamics"),
        eval_limit=s["eval_limit"],
        probe_steps=s["probe_steps"] if args.probe else 0,
    )
    out_csv = os.path.join(_reports_dir(args.run_dir), "dynamics.csv")
    write_dynamics_csv(result.records, out_csv)
    _write_json(
        {
            "csv": out_csv,
            "checkpoints": len(result.records),
            "correlations": {k: list(v) for k, v in sorted(result.correlations.items())},
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_settings_flags(parser: argparse.ArgumentParser, keys: list[str]) -> None:
    for key in keys:
        default, meaning = SETTINGS[key]
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                            default=None, help=f"{meaning} (default {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spantree",
        description="Span-invariance charts, tree projection, and training dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, keys, **flags):
        """Subparser with --config, one flag per settings key (``keys`` is
        space-separated) and one flag per further argument, each given as
        its ``add_argument`` keywords."""
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value settings file")
        _add_settings_flags(p, keys.split())
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.set_defaults(func=func, settings_keys=keys.split())
        return p

    def required(text):
        return {"required": True, "help": text}

    checkpoint = required("checkpoint directory")
    data = required("corpus directory written by gen-data")
    run_dir = required("run directory: checkpoints/ and reports/ go under it")
    sentence = {"default": None, "help": "one sentence of space-separated tokens"}
    command("gen-data", cmd_gen_data, "seed count depth_min depth_max alphabet val_frac",
            out=required("directory to write the corpus to"))
    train_keys = ("seed steps checkpoint_every batch_size lr warmup weight_decay "
                  "d_model heads enc_layers d_ff max_len")
    command("train", cmd_train, train_keys + " dec_layers eval_limit",
            data=data, run_dir=run_dir)
    command("train-mlm", cmd_train_mlm, train_keys + " mask_frac",
            data=data, run_dir=run_dir)
    tsv_input = {"default": None, "help": "TSV file of sentences (or --sentence)"}
    command("chart", cmd_chart, "threshold index", checkpoint=checkpoint,
            out={"default": None, "help": "JSON file to write (default stdout)"},
            input=tsv_input, sentence=sentence)
    command("project", cmd_project, "seed threshold mode samples_per_node",
            checkpoint=checkpoint,
            out_dir=required("directory for trees.sexpr and scores.json"),
            input=tsv_input, sentence=sentence)
    eval_trees = sub.add_parser("eval-trees")
    eval_trees.add_argument("--pred", required=True,
                            help="predicted trees, one s-expression per line")
    eval_trees.add_argument("--gold", required=True,
                            help="gold trees, in the same order as --pred")
    eval_trees.add_argument("--exclude-root", action="store_true",
                            help="leave each whole-sentence bracket out of the scores")
    eval_trees.set_defaults(func=cmd_eval_trees, settings_keys=[])
    command("probe", cmd_probe, "seed probe_steps batch_size lr warmup",
            checkpoint=required("encoder checkpoint to probe"), data=data, run_dir=run_dir)
    csv_out = required("CSV file to write")
    command("perturb", cmd_perturb, "seed pairs sigma2 sentences",
            checkpoint=checkpoint, data=data, out=csv_out)
    command("gap", cmd_gap, "seed span_samples sentences",
            checkpoint=checkpoint, data=data, out=csv_out)
    dynamics = command(
        "dynamics", cmd_dynamics,
        "seed threshold_mode fixed_t eval_sentences tune_sentences samples_per_node "
        "eval_limit probe_steps",
        run_dir=required("training run directory: reads checkpoints/, writes reports/"),
        data=data,
    )
    dynamics.add_argument("--probe", action="store_true",
                          help="also train a fresh probe per checkpoint (slow)")
    dynamics.description = (
        "Score every checkpoint of a training run.  Accuracies are re-scored on "
        "the first --eval-limit examples of each split.  Without the flag or a "
        "--config value, that is the limit train recorded in the run's "
        f"resolved-config.txt, or {EVAL_LIMIT} if it recorded none."
    )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args, resolve_settings(args))
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
