"""End-to-end command-line pipeline plus settings-resolution rules."""

import contextlib
import inspect
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from spantree import datasets, treeval
from spantree.cli import DEFAULTS, build_parser, component_seed, main, resolve_settings
from spantree.encoder import load_checkpoint
from spantree.errors import ContractViolation
from spantree.spanrep import build_sci_chart
from spantree.training import train_probe


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


def strict_json(text):
    """``json.loads`` that rejects the NaN and Infinity tokens JSON lacks."""

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def run_json(argv):
    rc, out = run_cli(argv)
    assert rc == 0, out
    return strict_json(out)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny gen-data + train pass shared by the command tests."""
    base = tmp_path_factory.mktemp("cli")
    data = str(base / "data")
    run = str(base / "run")
    gen = run_json([
        "gen-data", "--out", data, "--count", "120", "--depth-min", "1",
        "--depth-max", "3", "--alphabet", "6", "--val-frac", "0.15", "--seed", "0",
    ])
    assert gen["train"] > 0 and gen["iid_val"] > 1 and gen["cg_test"] > 0
    train = run_json([
        "train", "--data", data, "--run-dir", run,
        "--steps", "4", "--checkpoint-every", "2", "--batch-size", "8",
        "--d-model", "16", "--heads", "2", "--enc-layers", "1", "--dec-layers", "1",
        "--d-ff", "32", "--max-len", "32", "--eval-limit", "4",
        "--lr", "0.001", "--warmup", "2", "--seed", "0",
    ])
    ckpt = os.path.join(run, "checkpoints", "step-00004")
    return {"base": base, "data": data, "run": run, "ckpt": ckpt,
            "gen": gen, "train": train}


# ---------------------------------------------------------------------------
# pipeline commands
# ---------------------------------------------------------------------------


def test_gen_data_writes_splits(pipeline):
    for name in ("train.tsv", "iid_val.tsv", "cg_test.tsv"):
        assert os.path.exists(os.path.join(pipeline["data"], name))
    gen = pipeline["gen"]
    assert gen["train"] + gen["iid_val"] + gen["cg_test"] <= 120  # dedup may drop
    assert os.path.exists(os.path.join(pipeline["data"], "resolved-config.txt"))


def test_train_writes_checkpoints_and_report(pipeline):
    run = pipeline["run"]
    assert pipeline["train"]["checkpoints"] == 3
    assert pipeline["train"]["final_step"] == 4
    for step in (0, 2, 4):
        d = os.path.join(run, "checkpoints", f"step-{step:05d}")
        assert os.path.exists(os.path.join(d, "manifest.json"))
        assert os.path.exists(os.path.join(d, "data.bin"))
    model = load_checkpoint(pipeline["ckpt"])
    assert model.step == 4 and model.task == "seq2seq"
    report = json.load(open(os.path.join(run, "reports", "train.json")))
    assert report["final_step"] == 4
    resolved = open(os.path.join(run, "resolved-config.txt")).read()
    assert "lr = 0.001" in resolved and "seed = 0" in resolved


def test_chart_command_json(pipeline, tmp_path):
    first = datasets.load_tsv(os.path.join(pipeline["data"], "iid_val.tsv"))[0]
    sentence = " ".join(first.source)
    payload = run_json([
        "chart", "--checkpoint", pipeline["ckpt"], "--sentence", sentence,
        "--threshold", "1",
    ])
    n = len(first.source)
    assert payload["n"] == n and payload["t"] == 1
    assert len(payload["entries"]) == n * (n + 1) // 2
    assert all(0.0 <= v <= 2.0 for _, _, v in payload["entries"])
    out = tmp_path / "chart.json"
    rc, _ = run_cli([
        "chart", "--checkpoint", pipeline["ckpt"], "--sentence", sentence,
        "--threshold", "1", "--out", str(out),
    ])
    assert rc == 0
    # the file holds the chart itself: floats round-trip through repr
    model = load_checkpoint(pipeline["ckpt"])
    chart = build_sci_chart(model, model.vocab.encode(first.source), 1)
    expected = [[i, j, float(chart.values[i, j])] for i, j in chart.spans()]
    written = strict_json(out.read_text())
    assert written["n"] == n and written["entries"] == expected


def test_chart_rejects_out_of_range_threshold(pipeline):
    rc, _ = run_cli([
        "chart", "--checkpoint", pipeline["ckpt"], "--sentence", "A1 B1",
        "--threshold", "5",
    ])
    assert rc == 1


def test_chart_needs_some_input(pipeline):
    rc, _ = run_cli(["chart", "--checkpoint", pipeline["ckpt"]])
    assert rc == 1


def test_project_greedy_deterministic_and_exact_no_worse(pipeline, tmp_path):
    src = os.path.join(pipeline["data"], "iid_val.tsv")
    dirs = {name: str(tmp_path / name) for name in ("g1", "g2", "ex")}
    for name in ("g1", "g2"):
        payload = run_json([
            "project", "--checkpoint", pipeline["ckpt"], "--input", src,
            "--out-dir", dirs[name], "--threshold", "0", "--mode", "greedy",
            "--samples-per-node", "2", "--seed", "7",
        ])
        assert payload["mode"] == "greedy"
    read = lambda d, f: open(os.path.join(d, f), "rb").read()
    assert read(dirs["g1"], "trees.sexpr") == read(dirs["g2"], "trees.sexpr")
    assert read(dirs["g1"], "scores.json") == read(dirs["g2"], "scores.json")

    run_json([
        "project", "--checkpoint", pipeline["ckpt"], "--input", src,
        "--out-dir", dirs["ex"], "--threshold", "0", "--mode", "exact", "--seed", "7",
    ])
    greedy = strict_json(read(dirs["g1"], "scores.json"))
    exact = strict_json(read(dirs["ex"], "scores.json"))
    assert "t_score" in greedy and "t_score" not in exact
    # each chart is projected once, and t_score summarizes those rows
    rows = [row["normalized_score"] for row in greedy["sentences"]]
    assert greedy["t_score"] == float(np.mean(rows))
    for g, e in zip(greedy["sentences"], exact["sentences"]):
        assert e["cumulative_sci"] <= g["cumulative_sci"] + 1e-12
    trees_out = treeval.load_trees(os.path.join(dirs["ex"], "trees.sexpr"))
    assert len(trees_out) == len(exact["sentences"])


def test_project_rejects_unknown_mode(pipeline, tmp_path):
    rc, _ = run_cli([
        "project", "--checkpoint", pipeline["ckpt"], "--sentence", "A1 B1",
        "--out-dir", str(tmp_path / "p"), "--mode", "sideways",
    ])
    assert rc == 1


def test_eval_trees_self_comparison(pipeline, tmp_path):
    src = os.path.join(pipeline["data"], "iid_val.tsv")
    out = str(tmp_path / "proj")
    run_json([
        "project", "--checkpoint", pipeline["ckpt"], "--input", src,
        "--out-dir", out, "--threshold", "0", "--mode", "exact",
    ])
    pred = os.path.join(out, "trees.sexpr")
    payload = run_json(["eval-trees", "--pred", pred, "--gold", pred])
    assert (payload["precision"], payload["recall"], payload["f1"]) == (1.0, 1.0, 1.0)
    assert payload["include_root"] is True
    no_root = run_json(["eval-trees", "--pred", pred, "--gold", pred, "--exclude-root"])
    assert no_root["f1"] == 1.0 and no_root["include_root"] is False


def test_eval_trees_length_mismatch(tmp_path):
    a = tmp_path / "a.sexpr"
    b = tmp_path / "b.sexpr"
    a.write_text("(x (y z))\n")
    b.write_text("(x (y z))\n(x y)\n")
    rc, _ = run_cli(["eval-trees", "--pred", str(a), "--gold", str(b)])
    assert rc == 1


def test_probe_command(pipeline, tmp_path):
    run_dir = str(tmp_path / "probe-run")
    payload = run_json([
        "probe", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
        "--run-dir", run_dir, "--probe-steps", "6", "--batch-size", "4",
        "--warmup", "2", "--seed", "0",
    ])
    assert 0.0 <= payload["p_parseval"] <= 1.0
    assert payload["heldout"] == pipeline["gen"]["iid_val"]
    probe = load_checkpoint(os.path.join(run_dir, "checkpoints", "probe"))
    assert probe.task == "probe"


def test_probe_defaults_match_the_cli():
    # `dynamics --probe` relies on train_probe's defaults, `probe` on the
    # CLI's; both must train the same schedule
    params = inspect.signature(train_probe).parameters
    for param, key in (("steps", "probe_steps"), ("batch_size", "batch_size"),
                       ("base_lr", "lr"), ("warmup_steps", "warmup")):
        assert params[param].default == DEFAULTS[key], param


def test_perturb_command(pipeline, tmp_path):
    out = str(tmp_path / "perturb.csv")
    payload = run_json([
        "perturb", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
        "--out", out, "--pairs", "6", "--sentences", "3", "--sigma2", "0.01",
        "--seed", "0",
    ])
    assert payload["pairs"] == 6
    assert payload["delta_ic"] > 0.0 and payload["delta_oc"] > 0.0
    lines = open(out).read().splitlines()
    assert lines[0] == "sentence,k,delta_ic,delta_oc,control"
    assert len(lines) == 1 + 2 * 6


def test_gap_command(pipeline, tmp_path):
    out = str(tmp_path / "gap.csv")
    payload = run_json([
        "gap", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
        "--out", out, "--span-samples", "4", "--sentences", "21", "--seed", "0",
    ])
    assert payload["spans"] >= 1
    assert payload["optimality_holds"] is True
    assert open(out).read().startswith("span,occurrences,gap,control_gap")


def test_dynamics_command_byte_identical_reruns(pipeline):
    argv = [
        "dynamics", "--run-dir", pipeline["run"], "--data", pipeline["data"],
        "--eval-sentences", "2", "--tune-sentences", "2", "--samples-per-node", "2",
        "--eval-limit", "2", "--fixed-t", "1", "--seed", "0",
    ]
    payload = run_json(argv)
    assert payload["checkpoints"] == 3
    # four training steps leave some series constant, whose rank correlation
    # is undefined and written as null
    assert any(rho is None for rho, _ in payload["correlations"].values())
    csv_path = os.path.join(pipeline["run"], "reports", "dynamics.csv")
    first = open(csv_path, "rb").read()
    run_json(argv)
    assert open(csv_path, "rb").read() == first
    lines = first.decode().splitlines()
    assert lines[0] == "step,t_score,t_parseval,p_parseval,iid_acc,cg_acc,threshold"
    assert len(lines) == 4
    assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 2, 4]


# ---------------------------------------------------------------------------
# settings resolution
# ---------------------------------------------------------------------------


def test_config_file_errors(tmp_path):
    cases = {
        "unknown.cfg": ("bogus = 3\n", 1),
        "noequals.cfg": ("seed 5\n", 1),
        "badvalue.cfg": ("seed = abc\n", 1),
    }
    for name, (text, want_rc) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        rc, _ = run_cli([
            "gen-data", "--config", str(path), "--out", str(tmp_path / "d"),
        ])
        assert rc == want_rc, name


def test_config_comments_and_precedence(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("# comment line\n\ncount = 5  # inline comment\nseed = 7\n")
    out = str(tmp_path / "from-config")
    run_json(["gen-data", "--config", str(cfg), "--out", out,
              "--depth-min", "1", "--depth-max", "1"])
    resolved = open(os.path.join(out, "resolved-config.txt")).read()
    assert "count = 5" in resolved and "seed = 7" in resolved
    out2 = str(tmp_path / "flag-wins")
    run_json(["gen-data", "--config", str(cfg), "--out", out2, "--count", "9",
              "--depth-min", "1", "--depth-max", "1"])
    assert "count = 9" in open(os.path.join(out2, "resolved-config.txt")).read()


def parse(argv):
    return build_parser().parse_args(argv)


def test_seed_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 7\n")
    base = ["gen-data", "--out", "unused", "--config", str(cfg)]
    monkeypatch.delenv("SPANTREE_SEED", raising=False)
    assert resolve_settings(parse(base))["seed"] == 7
    monkeypatch.setenv("SPANTREE_SEED", "9")
    assert resolve_settings(parse(base))["seed"] == 9
    assert resolve_settings(parse(base + ["--seed", "3"]))["seed"] == 3
    monkeypatch.setenv("SPANTREE_SEED", "ouch")
    with pytest.raises(ContractViolation):
        resolve_settings(parse(base))
    monkeypatch.delenv("SPANTREE_SEED")
    assert resolve_settings(parse(["gen-data", "--out", "u"]))["seed"] == 0


def test_env_seed_equivalent_to_flag(tmp_path, monkeypatch):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    monkeypatch.delenv("SPANTREE_SEED", raising=False)
    run_json(["gen-data", "--out", a, "--count", "30", "--seed", "11",
              "--depth-min", "1", "--depth-max", "2"])
    monkeypatch.setenv("SPANTREE_SEED", "11")
    run_json(["gen-data", "--out", b, "--count", "30",
              "--depth-min", "1", "--depth-max", "2"])
    read = lambda d: open(os.path.join(d, "train.tsv"), "rb").read()
    assert read(a) == read(b)


def test_component_seed_frozen_values():
    # sha256("seed:name") first 8 bytes, big-endian
    assert component_seed(0, "train") == 10642995734211068720
    assert component_seed(0, "probe") == 1063153868157085357
    assert component_seed(1, "train") == 7956817529494605101
    assert component_seed(0, "data") == 17695361009812855374
    assert component_seed(0, "train") != component_seed(0, "probe")


# ---------------------------------------------------------------------------
# exit codes and entry point
# ---------------------------------------------------------------------------


def test_missing_inputs_exit_2(tmp_path, pipeline):
    rc, _ = run_cli(["train", "--data", str(tmp_path / "nope"), "--run-dir",
                     str(tmp_path / "r")])
    assert rc == 2
    rc, _ = run_cli(["chart", "--checkpoint", str(tmp_path / "nope"),
                     "--sentence", "A1 B1"])
    assert rc == 2
    rc, _ = run_cli(["eval-trees", "--pred", str(tmp_path / "nope.sexpr"),
                     "--gold", str(tmp_path / "nope.sexpr")])
    assert rc == 2
    rc, _ = run_cli(["gen-data", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "d")])
    assert rc == 2


_DROP = object()


def _edit(*keys, value=_DROP):
    """Manifest corruption: drop (or set to ``value``) the entry at ``keys``."""

    def corrupt(manifest):
        node = manifest
        for key in keys[:-1]:
            node = node[key]
        if value is _DROP:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        return manifest

    return corrupt


MANIFEST_CORRUPTIONS = {
    "missing config": _edit("config"),
    "missing vocab": _edit("vocab"),
    "unknown config key": _edit("config", "colour", value="red"),
    "mistyped config value": _edit("config", "d_model", value="16"),
    "zero heads": _edit("config", "heads", value=0),
    "tensors not a list": _edit("tensors", value={"enc.emb": [1, 2]}),
    "tensor entry without rows": _edit("tensors", 0, "rows"),
    "tensor entry not an object": _edit("tensors", 0, value="enc.emb"),
    "vocab an int": _edit("vocab", value=7),
    "step not an integer": _edit("step", value="four"),
    "manifest a list": lambda manifest: [manifest],
}


def assert_clean_error(argv, code=1, prefix="error:"):
    """``python -m spantree argv`` exits ``code`` with a line starting with
    ``prefix`` and no traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "spantree", *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert any(line.startswith(prefix) for line in proc.stderr.splitlines()), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", sorted(MANIFEST_CORRUPTIONS))
def test_malformed_manifest_is_a_clean_error(pipeline, tmp_path, case):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(pipeline["ckpt"], ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    (ckpt / "manifest.json").write_text(json.dumps(MANIFEST_CORRUPTIONS[case](manifest)))
    assert_clean_error(["chart", "--checkpoint", str(ckpt), "--sentence", "A1 B1"])


NOT_UTF8 = b"A1 B1\tA1 B1\n\xff\xfe\n"


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(NOT_UTF8)
    return str(path)


def _blank(tmp_path, name):
    path = tmp_path / name
    path.write_text("\n\n", encoding="utf-8")
    return str(path)


def _data_with_bad_split(pipeline, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    (data / "iid_val.tsv").write_bytes(NOT_UTF8)
    return str(data)


def _train(pipeline, tmp_path, command="train"):
    return [command, "--data", pipeline["data"], "--run-dir", str(tmp_path / "run"),
            "--steps", "2", "--d-model", "16", "--heads", "2", "--d-ff", "32"]


def _probe(pipeline, tmp_path):
    return ["probe", "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
            "--run-dir", str(tmp_path / "run"), "--probe-steps", "2"]


def _gen_data(tmp_path):
    return ["gen-data", "--out", str(tmp_path / "d"), "--count", "20"]


def _analysis(pipeline, tmp_path, command):
    return [command, "--checkpoint", pipeline["ckpt"], "--data", pipeline["data"],
            "--out", str(tmp_path / f"{command}.csv")]


def _dynamics(pipeline):
    # the run directory is shared, but every case fails before writing to it
    return ["dynamics", "--run-dir", pipeline["run"], "--data", pipeline["data"]]


# Each case: (pipeline, tmp_path) -> argv that must fail cleanly.
BAD_INPUTS = {
    "train --checkpoint-every 0": lambda p, t: _train(p, t) + ["--checkpoint-every", "0"],
    "train-mlm --checkpoint-every 0":
        lambda p, t: _train(p, t, "train-mlm") + ["--checkpoint-every", "0"],
    "train --steps -1": lambda p, t: _train(p, t) + ["--steps", "-1"],
    "probe --probe-steps -3": lambda p, t: [
        "probe", "--checkpoint", p["ckpt"], "--data", p["data"],
        "--run-dir", str(t / "run"), "--probe-steps", "-3"],
    "chart --input not UTF-8": lambda p, t: [
        "chart", "--checkpoint", p["ckpt"], "--input", _not_utf8(t, "in.tsv")],
    "split under --data not UTF-8": lambda p, t: [
        "perturb", "--checkpoint", p["ckpt"], "--data", _data_with_bad_split(p, t),
        "--out", str(t / "perturb.csv")],
    "eval-trees file not UTF-8": lambda p, t: [
        "eval-trees", "--pred", _not_utf8(t, "pred.sexpr"), "--gold", _not_utf8(t, "gold.sexpr")],
    # an input with nothing in it used to exit 0 with a made-up result
    "project --input of blank lines": lambda p, t: [
        "project", "--checkpoint", p["ckpt"], "--input", _blank(t, "in.tsv"),
        "--out-dir", str(t / "proj")],
    "eval-trees on empty files": lambda p, t: [
        "eval-trees", "--pred", _blank(t, "pred.sexpr"), "--gold", _blank(t, "gold.sexpr")],
    "--config not UTF-8": lambda p, t: [
        "gen-data", "--config", _not_utf8(t, "bad.cfg"), "--out", str(t / "d")],
    # numeric flags out of range: each used to end in a traceback or to run
    # on a silently misread value
    "train --batch-size -2": lambda p, t: _train(p, t) + ["--batch-size", "-2"],
    "train-mlm --batch-size -2": lambda p, t: _train(p, t, "train-mlm") + ["--batch-size", "-2"],
    "probe --batch-size -2": lambda p, t: _probe(p, t) + ["--batch-size", "-2"],
    "train --eval-limit -1": lambda p, t: _train(p, t) + ["--eval-limit", "-1"],
    "train --lr -1": lambda p, t: _train(p, t) + ["--lr", "-1"],
    "train --warmup -5": lambda p, t: _train(p, t) + ["--warmup", "-5"],
    "train --weight-decay -5": lambda p, t: _train(p, t) + ["--weight-decay", "-5"],
    "train-mlm --mask-frac 0": lambda p, t: _train(p, t, "train-mlm") + ["--mask-frac", "0"],
    "train-mlm --mask-frac 2": lambda p, t: _train(p, t, "train-mlm") + ["--mask-frac", "2"],
    "gen-data --alphabet 0": lambda p, t: _gen_data(t) + ["--alphabet", "0"],
    "gen-data --val-frac -0.5": lambda p, t: _gen_data(t) + ["--val-frac", "-0.5"],
    "perturb --pairs -1": lambda p, t: _analysis(p, t, "perturb") + ["--pairs", "-1"],
    "perturb --sentences -1": lambda p, t: _analysis(p, t, "perturb") + ["--sentences", "-1"],
    # NaN passed a plain `< 0` check and wrote zero deltas; inf wrote NaN
    "perturb --sigma2 nan": lambda p, t: _analysis(p, t, "perturb") + ["--sigma2", "nan"],
    "perturb --sigma2 inf": lambda p, t: _analysis(p, t, "perturb") + ["--sigma2", "inf"],
    "gap --span-samples -1": lambda p, t: _analysis(p, t, "gap") + ["--span-samples", "-1"],
    "gap --sentences -2": lambda p, t: _analysis(p, t, "gap") + ["--sentences", "-2"],
    "dynamics --eval-limit -1": lambda p, t: _dynamics(p) + ["--eval-limit", "-1"],
    "dynamics --eval-limit 0": lambda p, t: _dynamics(p) + ["--eval-limit", "0"],
    "dynamics --eval-sentences -1": lambda p, t: _dynamics(p) + ["--eval-sentences", "-1"],
    "dynamics --tune-sentences -1": lambda p, t: _dynamics(p) + ["--tune-sentences", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_a_clean_error(pipeline, tmp_path, case):
    assert_clean_error(BAD_INPUTS[case](pipeline, tmp_path))


def _chart_with_blob(edit):
    """``chart`` on a copy of the pipeline checkpoint whose data.bin ``edit`` changed."""

    def argv(pipeline, tmp_path):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline["ckpt"], ckpt)
        edit(ckpt / "data.bin")
        return ["chart", "--checkpoint", str(ckpt), "--sentence", "A1 B1"]

    return argv


def _four_column_tsv(pipeline, tmp_path):
    path = tmp_path / "in.tsv"
    path.write_text("A1 B1\tA1 B1\t(A1 B1)\textra\n", encoding="utf-8")
    return ["chart", "--checkpoint", pipeline["ckpt"], "--input", str(path)]


# Each case: (argv builder, exit code, first word of the error line).
CORRUPT_FILES = {
    "data.bin missing": (_chart_with_blob(lambda blob: blob.unlink()), 2, "io error:"),
    "data.bin truncated": (
        _chart_with_blob(lambda blob: blob.write_bytes(blob.read_bytes()[:-8])), 1, "error:"),
    "data.bin oversized": (
        _chart_with_blob(lambda blob: blob.write_bytes(blob.read_bytes() + bytes(8))), 1,
        "error:"),
    "--input TSV with 4 columns": (_four_column_tsv, 1, "error:"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT_FILES))
def test_corrupt_file_is_a_clean_error(pipeline, tmp_path, case):
    build, code, prefix = CORRUPT_FILES[case]
    assert_clean_error(build(pipeline, tmp_path), code, prefix)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spantree", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "gen-data" in proc.stdout and "dynamics" in proc.stdout
