"""Command-line entry point.

One executable, ten subcommands covering the pipeline: generate data, train
(transduction or masked-token), dump SCI charts, project trees, score trees,
train the bracketing probe, and run the perturbation / span-gap / dynamics
analyses.  Settings resolve in three layers: built-in defaults, then a flat
``key = value`` config file (unknown keys rejected), then command-line flags.
The single top-level seed (flag > SPANTREE_SEED env > config > default) is
expanded per component through sha256, and every run directory receives the
fully resolved settings it ran with.

Exit codes: 0 success, 1 contract violation (bad inputs, malformed files,
diverged training), 2 I/O failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
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
from .projector import exact_project, greedy_project, t_score
from .spanrep import build_sci_chart
from .training import CheckpointInfo, train_mlm, train_probe, train_seq2seq
from .trees import to_sexpr

log = logging.getLogger("spantree.cli")

SEED_ENV = "SPANTREE_SEED"

DEFAULTS = {
    "seed": 0,
    "steps": 3000,
    "checkpoint_every": 200,
    "batch_size": 32,
    "lr": 3e-4,
    "warmup": 300,
    "weight_decay": 0.01,
    "d_model": 64,
    "heads": 4,
    "enc_layers": 2,
    "dec_layers": 2,
    "d_ff": 256,
    "max_len": 64,
    "count": 3000,
    "depth_min": 1,
    "depth_max": 3,
    "alphabet": 20,
    "val_frac": 0.1,
    "threshold": 1,
    "mode": "greedy",
    "samples_per_node": 4,
    "pairs": 500,
    "sigma2": 0.01,
    "span_samples": 50,
    "eval_limit": 200,
    "eval_sentences": 40,
    "tune_sentences": 16,
    "probe_steps": 1500,
    "fixed_t": 1,
    "sentences": 40,
    "index": 0,
    "mask_frac": 0.15,
    "threshold_mode": "fixed",
}

# Each key's type is its default's: config values and flags are cast to it.
CASTERS = {key: type(value) for key, value in DEFAULTS.items()}


def component_seed(seed: int, name: str) -> int:
    """Stable per-component seed derived from the top-level seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; blank lines and # comments allowed."""
    values = {}
    for lineno, raw in numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CASTERS:
            raise ContractViolation(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CASTERS[key](value)
        except ValueError as exc:
            raise ContractViolation(
                f"{path}:{lineno}: bad value for {key}: {value!r}"
            ) from exc
    return values


def resolve_settings(args: argparse.Namespace) -> dict:
    """The subcommand's settings (``args.settings_keys``, stored by
    ``build_parser``): defaults < config file < flags; seed: flag > env >
    config > default."""
    wanted = args.settings_keys
    settings = {key: DEFAULTS[key] for key in wanted}
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


def _write_json(payload: dict, path: str | None = None) -> None:
    """Indented, key-sorted JSON to ``path``, or to stdout without one."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
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
        vocab_size=len(datasets.RESERVED) + 1,  # overwritten from the corpus
        max_len=s["max_len"],
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    s = resolve_settings(args)
    write_resolved(args.out, s)
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


def cmd_train(args) -> int:
    s = resolve_settings(args)
    write_resolved(args.run_dir, s)
    corpus = datasets.load_corpus(args.data)
    series = train_seq2seq(
        _encoder_config(s),
        corpus,
        steps=s["steps"],
        checkpoint_every=s["checkpoint_every"],
        seed=component_seed(s["seed"], "train"),
        batch_size=s["batch_size"],
        base_lr=s["lr"],
        warmup_steps=s["warmup"],
        weight_decay=s["weight_decay"],
        eval_limit=s["eval_limit"],
        out_dir=os.path.join(args.run_dir, "checkpoints"),
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


def cmd_train_mlm(args) -> int:
    s = resolve_settings(args)
    write_resolved(args.run_dir, s)
    corpus = datasets.load_corpus(args.data)
    series = train_mlm(
        _encoder_config(s, dec_layers=0),
        corpus,
        steps=s["steps"],
        checkpoint_every=s["checkpoint_every"],
        seed=component_seed(s["seed"], "train-mlm"),
        batch_size=s["batch_size"],
        base_lr=s["lr"],
        warmup_steps=s["warmup"],
        weight_decay=s["weight_decay"],
        mask_frac=s["mask_frac"],
        out_dir=os.path.join(args.run_dir, "checkpoints"),
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


def _input_sentences(args, vocab) -> list[tuple[list[str], list[int]]]:
    if getattr(args, "sentence", None):
        tokens = args.sentence.split()
        return [(tokens, vocab.encode(tokens))]
    if not getattr(args, "input", None):
        raise ContractViolation("need --input FILE or --sentence \"tok tok ...\"")
    examples = datasets.load_tsv(args.input)
    return [(ex.source, vocab.encode(ex.source)) for ex in examples]


def cmd_chart(args) -> int:
    s = resolve_settings(args)
    model = load_checkpoint(args.checkpoint)
    sentences = _input_sentences(args, model.vocab)
    if not 0 <= s["index"] < len(sentences):
        raise ContractViolation(f"--index {s['index']} outside input of {len(sentences)}")
    _, ids = sentences[s["index"]]
    chart = build_sci_chart(model, ids, s["threshold"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            chart.dump_json(fh)
    else:
        chart.dump_json(sys.stdout)
    return 0


def cmd_project(args) -> int:
    s = resolve_settings(args)
    if s["mode"] not in ("greedy", "exact"):
        raise ContractViolation(f"--mode must be greedy or exact, got {s['mode']!r}")
    model = load_checkpoint(args.checkpoint)
    sentences = _input_sentences(args, model.vocab)
    os.makedirs(args.out_dir, exist_ok=True)
    write_resolved(args.out_dir, s)
    rng = np.random.default_rng(component_seed(s["seed"], "project"))
    rows, lines, charts = [], [], []
    for idx, (tokens, ids) in enumerate(sentences):
        chart = build_sci_chart(model, ids, s["threshold"])
        charts.append(chart)
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
        lines.append(to_sexpr(tree, tokens))
    with open(os.path.join(args.out_dir, "trees.sexpr"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    scores = {"mode": s["mode"], "threshold": s["threshold"], "sentences": rows}
    if s["mode"] == "greedy":
        scores["t_score"] = t_score(
            charts,
            s["samples_per_node"],
            rng=np.random.default_rng(component_seed(s["seed"], "t_score")),
        )
    _write_json(scores, os.path.join(args.out_dir, "scores.json"))
    _write_json(
        {"out_dir": args.out_dir, "sentences": len(rows), "mode": s["mode"],
         "threshold": s["threshold"]}
    )
    return 0


def cmd_eval_trees(args) -> int:
    pred = treeval.load_trees(args.pred)
    gold = treeval.load_trees(args.gold)
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


def cmd_probe(args) -> int:
    s = resolve_settings(args)
    write_resolved(args.run_dir, s)
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


def cmd_perturb(args) -> int:
    s = resolve_settings(args)
    model = load_checkpoint(args.checkpoint)
    corpus = datasets.load_corpus(args.data)
    examples = [ex for ex in corpus.iid_val if ex.tree is not None][: s["sentences"]]
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


def cmd_gap(args) -> int:
    s = resolve_settings(args)
    model = load_checkpoint(args.checkpoint)
    corpus = datasets.load_corpus(args.data)
    sentences = [ex.source for ex in corpus.iid_val[: s["sentences"]]]
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


def _load_series(run_dir: str) -> list[CheckpointInfo]:
    root = os.path.join(run_dir, "checkpoints")
    if not os.path.isdir(root):
        raise ContractViolation(f"{run_dir} has no checkpoints/ directory")
    names = sorted(d for d in os.listdir(root) if d.startswith("step-"))
    series = []
    for name in names:
        path = os.path.join(root, name)
        model = load_checkpoint(path)
        series.append(CheckpointInfo(step=model.step, model=model, path=path))
    if not series:
        raise ContractViolation(f"{root} contains no step-* checkpoints")
    return series


def cmd_dynamics(args) -> int:
    s = resolve_settings(args)
    corpus = datasets.load_corpus(args.data)
    series = _load_series(args.run_dir)
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
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=CASTERS[key], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spantree",
        description="Span-invariance charts, tree projection, and training dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, keys, **paths):
        """Subparser with --config, one flag per settings key (``keys`` is
        space-separated) and the given path arguments."""
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value settings file")
        _add_settings_flags(p, keys.split())
        for flag, kwargs in paths.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.set_defaults(func=func, settings_keys=keys.split())
        return p

    required = {"required": True}
    command("gen-data", cmd_gen_data, "seed count depth_min depth_max alphabet val_frac",
            out=required)
    train_keys = ("seed steps checkpoint_every batch_size lr warmup weight_decay "
                  "d_model heads enc_layers d_ff max_len")
    command("train", cmd_train, train_keys + " dec_layers eval_limit",
            data=required, run_dir=required)
    command("train-mlm", cmd_train_mlm, train_keys + " mask_frac",
            data=required, run_dir=required)
    chart = command("chart", cmd_chart, "threshold index",
                    checkpoint=required, out={"default": None})
    chart.add_argument("--input", default=None)
    chart.add_argument("--sentence", default=None, help="space-separated tokens")
    project = command("project", cmd_project, "seed threshold mode samples_per_node",
                      checkpoint=required, out_dir=required)
    project.add_argument("--input", default=None)
    project.add_argument("--sentence", default=None, help="space-separated tokens")
    eval_trees = sub.add_parser("eval-trees")
    eval_trees.add_argument("--pred", required=True)
    eval_trees.add_argument("--gold", required=True)
    eval_trees.add_argument("--exclude-root", action="store_true")
    eval_trees.set_defaults(func=cmd_eval_trees)
    command("probe", cmd_probe, "seed probe_steps batch_size lr warmup",
            checkpoint=required, data=required, run_dir=required)
    command("perturb", cmd_perturb, "seed pairs sigma2 sentences",
            checkpoint=required, data=required, out=required)
    command("gap", cmd_gap, "seed span_samples sentences",
            checkpoint=required, data=required, out=required)
    dynamics = command(
        "dynamics", cmd_dynamics,
        "seed threshold_mode fixed_t eval_sentences tune_sentences samples_per_node "
        "eval_limit probe_steps",
        run_dir=required, data=required,
    )
    dynamics.add_argument("--probe", action="store_true",
                          help="also train a fresh probe per checkpoint (slow)")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
