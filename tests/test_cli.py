import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import funclag
import funclag.cli
from funclag.cli import main
from funclag.dual import Certificate
from funclag.jsonio import decode_reals, encode_reals
from funclag.specs import adversarial_auc, guaranteed_auc

from oracles import forward_sample

MODEL = str(Path(__file__).resolve().parent.parent / "models" / "synthetic_two_layer.json")


def write_spec(tmp_path, name="spec.json", **overrides):
    spec = {
        "type": "robust_ood",
        "input": [0.5] * 6,
        "epsilon": 0.04,
        "p_max": 0.999,
    }
    spec.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


def step_zero_certificate(tmp_path) -> dict:
    """The first certificate of a zero-step, attack-free, unverified run, decoded."""
    spec = write_spec(tmp_path, p_max=0.05)
    out = tmp_path / "cert.json"
    run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "0", "--no-attack",
             "--out", str(out)])
    return decode_reals(json.loads(out.read_text()))["certificates"][0]


DIGEST = "0123456789abcdef" * 4
CONFIG = {"steps": 0, "lr": 0.001, "decay_every": 250, "certify_every": 50, "init": "zeros"}
# (field, corruption of its value or None to drop it, expected message)
CORRUPTIONS = [
    ("multipliers", None, "multipliers"),
    ("multipliers", lambda lams: [], "multipliers"),
    ("multipliers", lambda lams: lams[0], "multipliers"),
    ("multipliers", lambda lams: ["linear"], "malformed multiplier entry"),
    ("multipliers", lambda lams: [{"params": lams[0]["params"]}], "malformed multiplier entry"),
    ("multipliers", lambda lams: [{**lams[0], "params": 5}], "malformed multiplier entry"),
    ("trace", None, "trace"),
    ("trace", lambda trace: [], "trace"),
    ("trace", lambda trace: "x", "trace"),
    ("trace", lambda trace: [5], "trace"),
    ("trace", lambda trace: [{**trace[0], "step": 0.0}], "integer step"),
    ("trace", lambda trace: [{**trace[0], "step": True}], "integer step"),
    ("trace", lambda trace: [{**trace[0], "step": 1}], "integer step"),
    ("trace", lambda trace: [trace[0], {**trace[0], "step": 2}], "integer step"),
    ("trace", lambda trace: [trace[0], {"step": 1}], "integer step"),
    ("trace", lambda trace: [{**trace[0], "note": 1}], "integer step"),
    ("trace", lambda trace: [{k: v for k, v in trace[0].items() if k != "train_value"}],
     "integer step"),
    ("trace", lambda trace: [{**trace[0], "train_value": "x"}], "finite train_value"),
    ("trace", lambda trace: [{**trace[0], "train_value": math.nan}], "finite train_value"),
    ("trace", lambda trace: [{**trace[0], "train_value": -math.inf}], "finite train_value"),
    ("trace", lambda trace: [{**trace[0], "train_value": True}], "finite train_value"),
    ("trace", lambda trace: [{**trace[0], "certified_value": None}], "certified_value"),
    ("trace", lambda trace: [{**trace[0], "certified_value": math.nan}], "certified_value"),
    ("trace", lambda trace: [{**trace[0], "certified_value": "0.1"}], "certified_value"),
    ("trace", lambda trace: [trace[0], {**trace[0], "step": 1, "certified_value": math.inf}],
     "certified_value"),
    ("trace", lambda trace: [{**trace[0], "train_value": "x", "certified_value": -5.0}],
     "train_value"),
    ("trace", lambda trace: [{"step": 0, "train_value": math.nan, "certified_value": None},
                             {"step": 0}], "integer step"),
    ("trace", lambda trace: [{**trace[0], "certified_value": trace[0]["certified_value"] + 1e-9}],
     "least certified margin"),
    ("trace", lambda trace: [trace[0], {**trace[0], "step": 1,
                                        "certified_value": trace[0]["certified_value"] - 1.0}],
     "least certified margin"),
    ("metadata", None, "metadata"),
    ("metadata", lambda meta: 5, "metadata"),
    ("metadata", lambda meta: {k: v for k, v in meta.items() if k != "threshold"}, "threshold"),
    ("metadata", lambda meta: {**meta, "threshold": "0.05"}, "threshold"),
    ("metadata", lambda meta: {**meta, "threshold": math.inf, "objective_bound": math.inf},
     "finite threshold"),
    ("metadata", lambda meta: {**meta, "objective_bound": meta["objective_bound"] + 1e-9},
     "objective_bound = bound \\+ threshold"),
    ("metadata", lambda meta: {**meta, "objective_bound": None}, "objective_bound"),
    ("metadata", lambda meta: {**meta, "attack_value": 0.1}, "attack_value and attack_stderr"),
    ("metadata", lambda meta: {**meta, "attack_stderr": 0.0}, "attack_value and attack_stderr"),
    ("metadata", lambda meta: {**meta, "attack_value": math.nan, "attack_stderr": 0.0},
     "finite real attack_value"),
    ("metadata", lambda meta: {**meta, "attack_value": 0.1, "attack_stderr": math.inf},
     "finite real attack_value"),
    ("metadata", lambda meta: {**meta, "attack_value": "0.1", "attack_stderr": 0.0},
     "finite real attack_value"),
    ("metadata", lambda meta: {**meta, "attack_value": None, "attack_stderr": None},
     "finite real attack_value"),
    ("metadata", lambda meta: {k: v for k, v in meta.items() if k != "family"}, "family"),
    ("metadata", lambda meta: {**meta, "family": "cubic"}, "family of linear"),
    ("metadata", lambda meta: {**meta, "family": ["linear"]}, "family of linear"),
    ("metadata", lambda meta: {**meta, "family": "quadratic"},
     "Linear\\+Linear stack is not laid out as the quadratic family's"),
    ("metadata", lambda meta: {**meta, "family": "linexp"}, "not laid out as the linexp"),
    ("metadata", lambda meta: {k: v for k, v in meta.items() if k != "config"}, "config"),
    ("metadata", lambda meta: {**meta, "config": "nonsense"}, "config"),
    ("metadata", lambda meta: {**meta, "config": {**meta["config"], "extra": 1}}, "config"),
    ("metadata", lambda meta: {**meta, "config": {k: v for k, v in meta["config"].items()
                                                  if k != "lr"}}, "config"),
    *[("metadata", lambda meta, key=key, value=value: {**meta, "config": {**meta["config"],
                                                                          key: value}}, "config")
      for key, value in [("steps", -1), ("steps", 1.0), ("steps", True), ("steps", "3"),
                         ("lr", 0.0), ("lr", -0.05), ("lr", math.inf), ("lr", math.nan),
                         ("lr", "0.05"), ("lr", True), ("decay_every", 0), ("decay_every", 2.5),
                         ("certify_every", 0), ("certify_every", None), ("init", "random"),
                         ("init", ["zeros"]), ("seed", -1), ("seed", 1.0), ("seed", False)]],
    ("fingerprint", None, "fingerprint"),
    ("fingerprint", lambda fp: None, "fingerprint"),
    ("fingerprint", lambda fp: {k: v for k, v in fp.items() if k != "spec"}, "fingerprint"),
    ("fingerprint", lambda fp: {**fp, "extra": DIGEST}, "fingerprint"),
    ("fingerprint", lambda fp: {**fp, "model": DIGEST[:-1]}, "fingerprint"),
    ("fingerprint", lambda fp: {**fp, "model": DIGEST.upper()}, "fingerprint"),
    ("fingerprint", lambda fp: {**fp, "bounds": 5}, "fingerprint"),
    ("multipliers", lambda lams: [{**lams[0], "params": {"theta": [True] * 3}}],
     "theta must hold numbers"),
    ("multipliers", lambda lams: [{**lams[0], "params": {"theta": ["0.5"] * 3}}],
     "theta must hold numbers"),
]


class TestVerify:
    def test_trivially_true_spec_exits_zero(self, tmp_path):
        # p_max close to 1 sits above the interval bound: verified at step 0
        spec = write_spec(tmp_path)
        out = tmp_path / "cert.json"
        result = run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--steps", "10", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        doc = decode_reals(json.loads(out.read_text()))
        assert doc["verified"] is True
        assert doc["bound"] <= 0.0
        assert len(doc["certificates"]) == 3

    def test_false_spec_exits_one(self, tmp_path):
        # the sampled confidence already exceeds this threshold
        spec = write_spec(tmp_path, p_max=0.05)
        out = tmp_path / "cert.json"
        result = run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--steps", "20",
             "--certify-every", "10", "--out", str(out)]
        )
        assert result.exit_code == 1
        doc = decode_reals(json.loads(out.read_text()))
        assert doc["verified"] is False
        for cert in doc["certificates"]:
            attack = cert["metadata"]["attack_value"]
            bound = cert["metadata"]["objective_bound"]
            assert bound >= attack - 4.0 * max(cert["metadata"]["attack_stderr"], 1e-9)

    def test_missing_model_exits_two(self, tmp_path):
        spec = write_spec(tmp_path)
        result = CliRunner().invoke(
            main,
            ["verify", "--model", str(tmp_path / "nope.json"), "--spec", spec,
             "--out", str(tmp_path / "cert.json")],
        )
        assert result.exit_code == 2

    def test_dist_robust_requires_linexp(self, tmp_path):
        # the dual itself rejects a sub-Gaussian input set without a linexp multiplier
        spec = write_spec(tmp_path, type="dist_robust_ood", sigma=0.1)
        for family in ("linear", "quadratic"):
            result = CliRunner().invoke(
                main,
                ["verify", "--model", MODEL, "--spec", spec, "--family", family,
                 "--out", str(tmp_path / "cert.json")],
            )
            assert result.exit_code == 2
            assert "linexp" in result.output

    def test_overflow_keeps_step_zero_bound(self, tmp_path):
        # lr 1000 drives the linexp input exponent past math.exp's range
        # after step 0; the sound step-0 bounds must survive
        spec = write_spec(tmp_path, type="dist_robust_ood", sigma=0.1, p_max=0.1)
        out = tmp_path / "cert.json"
        with pytest.warns(RuntimeWarning, match="OverflowError"):
            result = run_cli(
                ["verify", "--model", MODEL, "--spec", spec, "--family", "linexp",
                 "--lr", "1000", "--steps", "50", "--out", str(out)]
            )
        assert result.exit_code == 1, result.output
        doc = decode_reals(json.loads(out.read_text()))
        step0 = [
            c["trace"][0]["certified_value"] - c["metadata"]["threshold"]
            for c in doc["certificates"]
        ]
        assert doc["bound"] == max(step0)
        assert doc["bound"] == pytest.approx(0.382, abs=1e-3)

        def reals(node):
            if isinstance(node, dict):
                for value in node.values():
                    yield from reals(value)
            elif isinstance(node, list):
                for value in node:
                    yield from reals(value)
            elif isinstance(node, float):
                yield node

        values = list(reals(doc))
        assert values and all(np.isfinite(values))

    def test_overflow_before_first_certificate_exits_two(self, tmp_path, monkeypatch):
        import funclag.inner

        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        # the step-0 evaluation fails in its input solve
        monkeypatch.setattr(funclag.inner, "inner_linexp_input", overflow)
        spec = write_spec(tmp_path, type="dist_robust_ood", sigma=0.1, p_max=0.1)
        out = tmp_path / "cert.json"
        result = run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--family", "linexp",
             "--steps", "5", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert "OverflowError" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "family, error", [("linear", "FloatingPointError"), ("quadratic", "FloatingPointError")]
    )
    def test_divergence_keeps_a_finite_bound(self, tmp_path, family, error):
        # lr 1e308 sends the step-1 multipliers to overflow: a linear run
        # then overflows in evaluating them, a quadratic one in the
        # symmetrization of its updated Q; either way the step-0 bound stands
        spec = write_spec(tmp_path, input=[0.3, 0.5, 0.6, 0.4, 0.7, 0.2], p_max=0.2)
        out = tmp_path / "cert.json"
        with (
            np.errstate(over="ignore", invalid="ignore"),
            pytest.warns(RuntimeWarning, match=error),
        ):
            result = run_cli(
                ["verify", "--model", MODEL, "--spec", spec, "--family", family,
                 "--lr", "1e308", "--steps", "6", "--certify-every", "1", "--no-attack",
                 "--out", str(out)]
            )
        assert result.exit_code in (0, 1), result.output
        text = out.read_text()
        assert math.isfinite(decode_reals(json.loads(text))["bound"])
        assert not re.search(r"\b(nan|inf|infinity)\b", text + result.output, re.IGNORECASE)

    @pytest.mark.parametrize("family", ["linear", "quadratic"])
    def test_divergence_warns_once(self, tmp_path, family):
        # numpy overflow past step 0 stops the run inside optimize, so the
        # user sees its stop warning alone (shown once for the three
        # problems, as Python's default filter shows it), and the step-0
        # bound stands
        spec = write_spec(tmp_path, input=[0.3, 0.5, 0.6, 0.4, 0.7, 0.2], p_max=0.2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            result = run_cli(
                ["verify", "--model", MODEL, "--spec", spec, "--family", family,
                 "--lr", "1e308", "--steps", "6", "--certify-every", "1", "--no-attack",
                 "--out", str(tmp_path / "cert.json")]
            )
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1 and runtime[0].startswith("optimization stopped"), runtime
        assert "worst certified margin 0.288661 " in result.output

    @pytest.mark.parametrize("flag, value", [("--exact-cap", "2"), ("--grid-n", "4")])
    def test_removed_softmax_flags_exit_two(self, tmp_path, flag, value):
        # every output width is solved exactly: no cap and no grid to set
        spec = write_spec(tmp_path, p_max=0.2)
        out = tmp_path / "cert.json"
        result = run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--steps", "4", flag, value,
             "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "No such option" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--certify-every", "0"), ("--decay-every", "0"), ("--lr", "nan")],
    )
    def test_bad_outer_loop_setting_exits_two(self, tmp_path, flag, value):
        spec = write_spec(tmp_path, p_max=0.2)
        out = tmp_path / "cert.json"
        result = run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--steps", "4", flag, value,
             "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "must be" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    @pytest.mark.parametrize(
        "field, value",
        [("epsilon", "wide"), ("input", ["a"] * 6), ("p_max", "high"), ("sigma", "small"),
         ("true_label", "first"),
         # json reads the literals NaN and Infinity; a spec must not carry them
         ("epsilon", math.inf), ("input", [math.nan] + [0.5] * 5), ("sigma", math.inf),
         # json keeps "0.04" a string and true a bool; neither is a number
         ("epsilon", "0.04"), ("epsilon", True), ("sigma", True), ("input", [True, False] * 3),
         ("input", [0.5] * 5 + [True]), ("true_label", "1"),
         # VerificationProblem checks the shape
         ("input", 0.5), ("input", [[0.5] * 6])],
    )
    def test_non_numeric_spec_field_exits_two(self, tmp_path, command, field, value):
        kind = {"sigma": "dist_robust_ood", "true_label": "adversarial"}.get(field, "robust_ood")
        spec = write_spec(tmp_path, **{"type": kind, "sigma": 0.1, "true_label": 0, field: value})
        out = tmp_path / "out.json"
        result = run_cli([command, "--model", MODEL, "--spec", spec, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    @pytest.mark.parametrize(
        "overrides, field",
        [({"type": "adversarial", "true_label": 1.7}, "true_label"),
         ({"type": "adversarial", "true_label": True}, "true_label"),
         ({"clip": "false"}, "clip"),
         ({"clip": 1}, "clip"),
         # a key no spec type reads would be ignored: the run would cover the clipped box
         ({"input": [0.98, 0.5, 0.5, 0.5, 0.5, 0.5], "Clip": False}, "unknown spec keys ['Clip']"),
         ({"note": "first OOD sample"}, "unknown spec keys ['note']")],
    )
    def test_spec_value_that_would_change_the_spec_exits_two(
        self, tmp_path, command, overrides, field
    ):
        spec = write_spec(tmp_path, **overrides)
        out = tmp_path / "out.json"
        result = run_cli([command, "--model", MODEL, "--spec", spec, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert field in result.output
        assert not out.exists()

    @pytest.mark.parametrize("target", ["optimize", "sample_lower_bound"])
    def test_an_unexpected_failure_exits_two(self, tmp_path, monkeypatch, target):
        # exit 1 means "sound but not verified", so an escaped exception must not get it
        def broken(*args, **kwargs):
            raise RuntimeError("broken on purpose")

        monkeypatch.setattr(funclag.cli, target, broken)
        spec = write_spec(tmp_path)
        out = tmp_path / "cert.json"
        result = CliRunner().invoke(
            main, ["verify", "--model", MODEL, "--spec", spec, "--steps", "2", "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert "error: RuntimeError: broken on purpose" in result.output
        assert not out.exists()

    def test_family_defaults_to_linexp_on_a_sub_gaussian_spec(self, tmp_path):
        spec = write_spec(tmp_path, type="dist_robust_ood", sigma=0.1, p_max=0.2)
        out = tmp_path / "cert.json"
        result = run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "4",
                          "--out", str(out)])
        assert result.exit_code in (0, 1), result.output
        doc = decode_reals(json.loads(out.read_text()))
        assert [c["metadata"]["family"] for c in doc["certificates"]] == ["linexp"] * 3

    def test_family_defaults_to_linear_on_a_box_spec(self, tmp_path):
        spec = write_spec(tmp_path, p_max=0.2)
        outputs = []
        for flags in ([], ["--family", "linear"]):
            out = tmp_path / f"cert{len(outputs)}.json"
            result = run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "4",
                              *flags, "--out", str(out)])
            assert result.exit_code in (0, 1), result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_adversarial_spec_on_one_output_exits_two(self, tmp_path, command):
        model = {"input_dim": 6, "layers": [{
            "activation": "identity",
            "weights": {"kind": "deterministic", "values": [[1.0] * 6]},
            "bias": {"kind": "deterministic", "values": [0.0]},
        }]}
        model_path = tmp_path / "one-output.json"
        model_path.write_text(json.dumps(model))
        spec = write_spec(tmp_path, type="adversarial", true_label=0)
        out = tmp_path / "out.json"
        result = run_cli([command, "--model", str(model_path), "--spec", spec, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "two outputs" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    @pytest.mark.parametrize("truncation", [math.inf, True], ids=["infinite", "boolean"])
    def test_bad_truncation_exits_two(self, tmp_path, command, truncation):
        model = {"input_dim": 1, "layers": [{
            "activation": "identity",
            "weights": {"kind": "gaussian", "mean": [[1.0], [2.0]], "stddev": [[0.0], [0.0]],
                        "truncation": truncation},
            "bias": {"kind": "deterministic", "values": [0.0, 0.0]},
        }]}
        model_path = tmp_path / "truncation.json"
        model_path.write_text(json.dumps(model))
        spec = write_spec(tmp_path, type="adversarial", input=[0.5], true_label=0)
        out = tmp_path / "out.json"
        result = run_cli([command, "--model", str(model_path), "--spec", spec, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "cannot load model" in result.output and "truncation" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    @pytest.mark.parametrize(
        "content",
        [b'{"type": "robust_ood", "input": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5], "epsilon": 0.04, '
         b'"p_max": 0.2, "note": "\xff"}',
         b"[" * 200_000 + b"]" * 200_000,
         # json reads it, the spec checks would recurse past the limit
         b'{"type": "robust_ood", "input": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5], "p_max": 0.2, '
         b'"epsilon": ' + b"[" * 600 + b"0.04" + b"]" * 600 + b"}"],
        ids=["not-utf8", "nested-document", "nested-field"],
    )
    def test_unreadable_spec_exits_two(self, tmp_path, command, content):
        spec = tmp_path / "spec.json"
        spec.write_bytes(content)
        out = tmp_path / "out.json"
        result = run_cli([command, "--model", MODEL, "--spec", str(spec), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error: " in result.output and "spec config" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_unwritable_out_exits_two(self, tmp_path, command):
        spec = write_spec(tmp_path)
        out = tmp_path / "missing" / "out.json"
        flags = ["--steps", "0", "--no-attack"] if command == "verify" else []
        result = run_cli([command, "--model", MODEL, "--spec", spec, *flags, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error: cannot write output" in result.output

    def test_help_shows_the_optimizer_defaults(self):
        text = " ".join(run_cli(["verify", "--help"]).output.split())
        for default in (1000, 0.001, 250, 50):
            assert f"[default: {default}]" in text

    def test_negative_seed_is_rejected_before_optimizing(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("optimize ran")

        monkeypatch.setattr(funclag.cli, "optimize", never)
        spec = write_spec(tmp_path)
        out = tmp_path / "cert.json"
        result = run_cli(["verify", "--model", MODEL, "--spec", spec, "--seed", "-1",
                          "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "--seed" in result.output
        assert not out.exists()

    def test_threads_option_is_gone(self, tmp_path):
        spec = write_spec(tmp_path)
        result = CliRunner().invoke(
            main,
            ["verify", "--model", MODEL, "--spec", spec, "--threads", "4",
             "--out", str(tmp_path / "cert.json")],
        )
        assert result.exit_code == 2
        assert "--threads" in result.output

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_clipped_center_on_box_edge_attack_terminates(self, tmp_path, edge):
        # clipping leaves the edge coordinate a noise radius of 0; its
        # truncated-Gaussian draws must not be rejected forever.  A child
        # process with a timeout keeps a regression from hanging the suite.
        spec = write_spec(
            tmp_path, type="dist_robust_ood", input=[edge, 0.5, 0.6, 0.4, 0.7, 0.2],
            sigma=0.05, p_max=0.2, clip=True,
        )
        out = tmp_path / "cert.json"
        src = str(Path(funclag.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "funclag.cli", "verify", "--model", MODEL, "--spec", spec,
             "--family", "linexp", "--steps", "2", "--certify-every", "2", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode in (0, 1), result.stderr
        doc = decode_reals(json.loads(out.read_text()))
        for cert in doc["certificates"]:
            assert math.isfinite(cert["metadata"]["attack_value"])

    @pytest.mark.parametrize("family", ["linear", "linexp", "quadratic"])
    def test_certificate_round_trip_bit_exact(self, tmp_path, family):
        noise = {"type": "dist_robust_ood", "sigma": 0.1} if family == "linexp" else {}
        spec = write_spec(tmp_path, p_max=0.2, **noise)
        out = tmp_path / "cert.json"
        run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--family", family, "--steps", "12",
             "--certify-every", "6", "--out", str(out)]
        )
        doc = decode_reals(json.loads(out.read_text()))
        from funclag.dual import evaluate_dual, fingerprints

        problems = funclag.build_problem(
            funclag.load_model(MODEL), json.loads(Path(spec).read_text())
        )
        assert len(problems) == len(doc["certificates"])
        for problem, entry in zip(problems, doc["certificates"]):
            assert entry["multipliers"][0]["family"] == family
            cert = Certificate.from_jsonable(entry)
            rebuilt = cert.to_jsonable()
            assert rebuilt["bound"] == entry["bound"]
            assert rebuilt["multipliers"] == entry["multipliers"]
            # a dual evaluation is pure: the stored stack alone reproduces the bound
            bounds = funclag.propagate_intervals(problem.network, problem.support_box())
            assert fingerprints([problem], bounds) == [cert.fingerprint]
            [total] = evaluate_dual([problem], cert.stack, bounds).total
            assert total - problem.threshold == cert.bound

    def test_relabelled_family_and_config_are_rejected(self, tmp_path):
        # a LinExp+Linear stack called quadratic, with a config that is no config
        spec = write_spec(tmp_path, type="dist_robust_ood", p_max=0.2, sigma=0.05)
        (tmp_path / "certs").mkdir()
        out = tmp_path / "certs" / "dist.json"
        run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "2", "--no-attack",
                 "--out", str(out)])
        doc = decode_reals(json.loads(out.read_text()))
        entry = doc["certificates"][0]
        assert [lam["family"] for lam in entry["multipliers"]] == ["linexp", "linear"]
        Certificate.from_jsonable(entry)
        relabelled = {**entry, "metadata": {**entry["metadata"], "family": "quadratic"}}
        with pytest.raises(ValueError, match="LinExp\\+Linear stack is not laid out"):
            Certificate.from_jsonable(relabelled)
        with pytest.raises(ValueError, match="config"):
            Certificate.from_jsonable(
                {**entry, "metadata": {**relabelled["metadata"], "config": "nonsense"}})
        for certificate in doc["certificates"]:
            certificate["metadata"].update(family="quadratic", config="nonsense")
        out.write_text(json.dumps(encode_reals(doc)))
        (tmp_path / "ids.json").write_text("[0.5]")
        result = run_cli(["auc", "--id-scores", str(tmp_path / "ids.json"),
                          "--certs", str(tmp_path / "certs"), "--out", str(tmp_path / "auc.json")])
        assert result.exit_code == 2
        assert "bad certificate file dist.json" in result.output

    def test_doctored_certificate_is_rejected(self, tmp_path):
        entry = step_zero_certificate(tmp_path)
        assert entry["bound"] > 0.0 and entry["verified"] is False
        Certificate.from_jsonable(entry)
        with pytest.raises(ValueError, match="contradicts"):
            Certificate.from_jsonable({**entry, "verified": True})

    @pytest.mark.parametrize(
        "verified, bound",
        [("false", -0.5), ([], 0.5), (0, 0.5), (False, True), (True, None), (False, "0.5")],
    )
    def test_certificate_needs_a_boolean_and_a_real(self, tmp_path, verified, bound):
        # bool("false") is True, so a string verified would load as verified
        entry = step_zero_certificate(tmp_path)
        with pytest.raises(ValueError, match="boolean verified and a real bound"):
            Certificate.from_jsonable({**entry, "verified": verified, "bound": bound})

    def test_non_finite_bound_is_rejected(self, tmp_path):
        # a NaN bound with verified false passes the sign check on its own
        entry = step_zero_certificate(tmp_path)
        with pytest.raises(ValueError, match="not finite"):
            Certificate.from_jsonable({**entry, "bound": math.nan, "verified": False})

    def test_hollow_certificate_is_rejected(self):
        doc = {"bound": 0.5, "verified": False, "multipliers": [], "trace": "x",
               "metadata": 5, "fingerprint": None}
        with pytest.raises(ValueError, match="multipliers"):
            Certificate.from_jsonable(doc)
        with pytest.raises(ValueError, match="JSON object"):
            Certificate.from_jsonable([doc])

    @pytest.mark.parametrize("field, corrupt, match", CORRUPTIONS,
                             ids=[f"{field}-{i}" for i, (field, _, _) in enumerate(CORRUPTIONS)])
    def test_each_corrupted_field_is_rejected(self, tmp_path, field, corrupt, match):
        entry = step_zero_certificate(tmp_path)
        doc = {key: value for key, value in entry.items() if key != field}
        if corrupt is not None:
            doc[field] = corrupt(entry[field])
        with pytest.raises(ValueError, match=match):
            Certificate.from_jsonable(doc)

    def test_one_optimization_per_spec(self, tmp_path, monkeypatch):
        # three labels, two stopping early at different steps, share one interval
        # pass, one model digest and one dual evaluation per step of the longest row
        import funclag.dual

        calls = {"propagate_intervals": 0, "model_to_dict": 0, "evaluate_dual": 0}
        for name in calls:
            original = getattr(funclag.dual, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(funclag.dual, name, counting)
        spec = write_spec(tmp_path, input=[0.3, 0.5, 0.6, 0.4, 0.7, 0.2], p_max=0.35)
        out = tmp_path / "cert.json"
        result = run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "60",
                          "--lr", "0.05", "--certify-every", "5", "--out", str(out)])
        assert result.exit_code == 1, result.output
        certs = decode_reals(json.loads(out.read_text()))["certificates"]
        assert [len(c["trace"]) for c in certs] == [1, 61, 11]
        assert calls == {"propagate_intervals": 1, "model_to_dict": 1, "evaluate_dual": 61}

    @pytest.mark.parametrize(
        "spec_type,labels",
        [("robust_ood", [0, 1, 2]), ("adversarial", [1, 2]), ("dist_robust_ood", [0, 1, 2])],
    )
    def test_one_attack_per_job(self, tmp_path, monkeypatch, spec_type, labels):
        calls = []
        original = funclag.cli.sample_lower_bound

        def spy(problems, **kwargs):
            calls.append(list(problems))
            return original(problems, **kwargs)

        monkeypatch.setattr(funclag.cli, "sample_lower_bound", spy)
        extra = {"sigma": 0.05, "p_max": 0.2} if spec_type == "dist_robust_ood" else {}
        extra.update({"true_label": 0} if spec_type == "adversarial" else {})
        spec = write_spec(tmp_path, type=spec_type, **extra)
        family = ["--family", "linexp"] if spec_type == "dist_robust_ood" else []
        out = tmp_path / "cert.json"
        result = run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "2",
                          "--certify-every", "2", "--seed", "4", *family, "--out", str(out)])
        assert result.exit_code in (0, 1), result.output
        [problems] = calls
        objectives = [p.objective for p in problems]
        assert [getattr(o, "label", getattr(o, "target", None)) for o in objectives] == labels
        attacks = original(problems, n_samples=200, seed=4, weight_draws=200, hill_steps=25)
        certs = decode_reals(json.loads(out.read_text()))["certificates"]
        assert [(c["metadata"]["attack_value"], c["metadata"]["attack_stderr"])
                for c in certs] == attacks

        calls.clear()
        result = run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "2",
                          "--certify-every", "2", "--no-attack", *family, "--out", str(out)])
        assert result.exit_code in (0, 1), result.output
        assert calls == []
        certs = decode_reals(json.loads(out.read_text()))["certificates"]
        assert all("attack_value" not in c["metadata"] for c in certs)

    def test_determinism_across_runs(self, tmp_path):
        spec = write_spec(tmp_path, p_max=0.2)
        contents = []
        for run in range(4):
            out = tmp_path / f"cert_{run}.json"
            run_cli(
                ["verify", "--model", MODEL, "--spec", spec, "--steps", "15",
                 "--certify-every", "5", "--seed", "7", "--out", str(out)]
            )
            contents.append(out.read_bytes())
        assert all(c == contents[0] for c in contents[1:])


class TestBounds:
    def test_identity_model_keeps_box(self, tmp_path):
        model = {
            "input_dim": 2,
            "layers": [
                {
                    "activation": "identity",
                    "weights": {"kind": "deterministic", "values": [[1.0, 0.0], [0.0, 1.0]]},
                    "bias": {"kind": "deterministic", "values": [0.0, 0.0]},
                }
            ],
        }
        model_path = tmp_path / "identity.json"
        model_path.write_text(json.dumps(model))
        spec = write_spec(tmp_path, input=[0.5, 0.5])
        out = tmp_path / "bounds.json"
        result = run_cli(
            ["bounds", "--model", str(model_path), "--spec", spec, "--out", str(out)]
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["layers"][1] == doc["layers"][0]

    def test_negative_box_relu_collapses(self, tmp_path):
        model = {
            "input_dim": 1,
            "layers": [
                {
                    "activation": "identity",
                    "weights": {"kind": "deterministic", "values": [[1.0]]},
                    "bias": {"kind": "deterministic", "values": [-5.0]},
                },
                {
                    "activation": "relu",
                    "weights": {"kind": "deterministic", "values": [[1.0]]},
                    "bias": {"kind": "deterministic", "values": [0.0]},
                },
            ],
        }
        model_path = tmp_path / "neg.json"
        model_path.write_text(json.dumps(model))
        spec = write_spec(tmp_path, input=[0.5])
        out = tmp_path / "bounds.json"
        run_cli(["bounds", "--model", str(model_path), "--spec", spec, "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["layers"][2] == [[0.0, 0.0]]

    def test_boxes_past_the_finite_range_exit_two(self, tmp_path):
        layer = {
            "weights": {"kind": "deterministic", "values": [[1e200]]},
            "bias": {"kind": "deterministic", "values": [0.0]},
        }
        model = {"input_dim": 1, "layers": [
            {"activation": "identity", **layer}, {"activation": "relu", **layer},
        ]}
        model_path = tmp_path / "huge.json"
        model_path.write_text(json.dumps(model))
        spec = write_spec(tmp_path, input=[0.5])
        out = tmp_path / "bounds.json"
        result = run_cli(["bounds", "--model", str(model_path), "--spec", spec, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error: interval endpoints must be finite" in result.output
        assert not out.exists()

    def test_sampled_activations_inside_dumped_boxes(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "bounds.json"
        run_cli(["bounds", "--model", MODEL, "--spec", spec, "--out", str(out)])
        doc = json.loads(out.read_text())
        from funclag import load_model

        net = load_model(MODEL)
        rng = np.random.default_rng(0)
        lo0 = np.array([p[0] for p in doc["layers"][0]])
        hi0 = np.array([p[1] for p in doc["layers"][0]])
        final_lo = np.array([p[0] for p in doc["layers"][-1]])
        final_hi = np.array([p[1] for p in doc["layers"][-1]])
        for trial in range(2000):
            x = lo0 + rng.random(6) * (hi0 - lo0)
            out_vec = forward_sample(net, x, seed=trial)
            assert np.all(out_vec >= final_lo - 1e-12)
            assert np.all(out_vec <= final_hi + 1e-12)


class TestAuc:
    def make_cert_dir(self, tmp_path, per_sample_bounds, attacks=None, threshold=0.5):
        """One file per sample, each label's certificate one the loader accepts: a
        one-entry trace at the label's objective bound, one linear multiplier, the
        linear family, a zero-step config and three digests; each file's verified and
        bound are those of its certificates."""
        directory = tmp_path / "certs"
        directory.mkdir()
        for i, bounds in enumerate(per_sample_bounds):
            certs = []
            for j, value in enumerate(map(float, bounds)):
                margin = value - threshold
                metadata = {"objective_bound": margin + threshold, "threshold": threshold,
                            "family": "linear", "config": CONFIG}
                if attacks is not None:
                    metadata.update(attack_value=float(attacks[i][j]), attack_stderr=0.0)
                cert = Certificate(
                    bound=margin, verified=margin <= 0.0,
                    stack=(funclag.Linear(theta=np.zeros((1, 3))),),
                    trace=[{"step": 0, "train_value": value, "certified_value": value}],
                    metadata=metadata,
                    fingerprint={"model": DIGEST, "spec": DIGEST, "bounds": DIGEST},
                )
                certs.append(cert.to_jsonable())
            doc = {"verified": all(c["verified"] for c in certs),
                   "bound": max((c["bound"] for c in certs), default=0.0), "certificates": certs}
            (directory / f"sample_{i}.json").write_text(json.dumps(encode_reals(doc)))
        return str(directory)

    def test_single_id_above_all_bounds(self, tmp_path):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]], attacks=[[0.1, 0.2]])
        id_path = tmp_path / "ids.json"
        id_path.write_text(json.dumps([0.9]))
        out = tmp_path / "auc.json"
        result = run_cli(["auc", "--id-scores", str(id_path), "--certs", certs, "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["gauc"] == 1.0
        assert doc["aauc"] == 1.0

    def test_empty_directory_errors(self, tmp_path):
        (tmp_path / "empty").mkdir()
        result = CliRunner().invoke(
            main,
            ["auc", "--id-scores", str(tmp_path / "missing.json"),
             "--certs", str(tmp_path / "empty"), "--out", str(tmp_path / "auc.json")],
        )
        assert result.exit_code == 2

    def run_auc(self, tmp_path, certs, ids=(0.9,)):
        id_path = tmp_path / "ids.json"
        id_path.write_text(json.dumps(ids))
        return run_cli(["auc", "--id-scores", str(id_path), "--certs", certs,
                        "--out", str(tmp_path / "auc.json")])

    @pytest.mark.parametrize("verified, bound", [
        (True, -1.0),      # the certificates' worst margin is 0.285
        (False, -1.0),
        (True, "worst"),
        (False, "first"),  # the first certificate's margin, not the worst
        (0, "worst"),
        ("false", "worst"),
        (False, None),
        (False, True),
    ])
    def test_summary_other_than_the_certificates_exits_two(self, tmp_path, verified, bound):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.785]])
        path = tmp_path / "certs" / "sample_0.json"
        doc = json.loads(path.read_text())
        margins = [decode_reals(c)["bound"] for c in doc["certificates"]]
        assert margins == [-0.3, pytest.approx(0.285)]
        doc["verified"] = verified
        doc["bound"] = {"worst": margins[1], "first": margins[0]}.get(bound, bound)
        path.write_text(json.dumps(doc))
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2, result.output
        assert "bad certificate file sample_0.json" in result.output
        assert "max(bound) of its certificates" in result.output
        assert not (tmp_path / "auc.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("steps", -1), ("steps", 2.0), ("lr", 0.0), ("lr", "inf"), ("decay_every", 0),
        ("certify_every", True), ("init", "random"), ("seed", -3), ("extra", 1),
    ])
    def test_bad_config_exits_two(self, tmp_path, key, value):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]])
        path = tmp_path / "certs" / "sample_0.json"
        doc = json.loads(path.read_text())
        doc["certificates"][1]["metadata"]["config"][key] = value
        path.write_text(json.dumps(doc))
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2, result.output
        assert "bad certificate file sample_0.json" in result.output
        assert "config" in result.output

    def test_empty_certificate_list_exits_two(self, tmp_path):
        certs = self.make_cert_dir(tmp_path, [[]])
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2
        assert "sample_0.json" in result.output

    @pytest.mark.parametrize("field", ["objective_bound", "attack_value"])
    # encode_reals writes a non-finite float as a string; json.dumps as a bare literal
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf", "NaN", "Infinity", "-Infinity"])
    def test_non_finite_value_exits_two(self, tmp_path, field, value):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]], attacks=[[0.1, 0.2]])
        path = tmp_path / "certs" / "sample_0.json"
        doc = json.loads(path.read_text())
        doc["certificates"][1]["metadata"][field] = value
        path.write_text(json.dumps(doc))
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2
        assert not (tmp_path / "auc.json").exists()

    @pytest.mark.parametrize("entry", [True, "0.5"], ids=["boolean", "string"])
    def test_a_multiplier_entry_that_is_no_number_exits_two(self, tmp_path, entry):
        # np.asarray(..., dtype=float) would read true as 1.0 and "0.5" as 0.5
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]])
        path = tmp_path / "certs" / "sample_0.json"
        doc = json.loads(path.read_text())
        doc["certificates"][0]["multipliers"][0]["params"]["theta"][0] = entry
        path.write_text(json.dumps(doc))
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2, result.output
        assert "bad certificate file sample_0.json" in result.output
        assert "theta must hold numbers" in result.output
        assert not (tmp_path / "auc.json").exists()

    @pytest.mark.parametrize("threshold", [0.0, 1.0])
    def test_threshold_outside_the_unit_interval_exits_two(self, tmp_path, threshold):
        # an OOD spec's threshold is its p_max, strictly inside (0, 1); an
        # adversarial one has 0, and its logit differences are no confidence scores
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]], threshold=threshold)
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2
        assert "bad certificate file sample_0.json" in result.output
        assert not (tmp_path / "auc.json").exists()

    def test_adversarial_verify_output_exits_two(self, tmp_path):
        spec = write_spec(tmp_path, type="adversarial", true_label=0)
        (tmp_path / "certs").mkdir()
        run_cli(["verify", "--model", MODEL, "--spec", spec, "--steps", "0", "--no-attack",
                 "--out", str(tmp_path / "certs" / "adversarial.json")])
        result = self.run_auc(tmp_path, str(tmp_path / "certs"))
        assert result.exit_code == 2
        assert "bad certificate file adversarial.json" in result.output

    def test_reads_verify_outputs(self, tmp_path):
        # one robust_ood/linear and one dist_robust_ood/linexp output of the bundled model
        directory = tmp_path / "certs"
        directory.mkdir()
        runs = [("robust_ood", "linear", {}), ("dist_robust_ood", "linexp", {"sigma": 0.05})]
        for kind, family, extra in runs:
            spec = write_spec(tmp_path, f"{kind}.json", type=kind, p_max=0.3,
                              input=[0.3, 0.5, 0.6, 0.4, 0.7, 0.2], **extra)
            result = run_cli(["verify", "--model", MODEL, "--spec", spec, "--family", family,
                              "--steps", "6", "--certify-every", "3",
                              "--out", str(directory / f"{kind}.json")])
            assert result.exit_code in (0, 1), result.output
        ids = [0.1, 0.35, 0.6, 0.95]
        result = self.run_auc(tmp_path, str(directory), ids)
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "auc.json").read_text())
        # per sample, the worst label's value, capped at 1
        worst = {"objective_bound": [], "attack_value": []}
        for path in sorted(directory.glob("*.json")):
            certs = decode_reals(json.loads(path.read_text()))["certificates"]
            for field, values in worst.items():
                values.append(min(max(c["metadata"][field] for c in certs), 1.0))
        assert doc["gauc"] == guaranteed_auc(np.clip(worst["objective_bound"], 0.0, 1.0), ids)
        assert doc["aauc"] == adversarial_auc(np.clip(worst["attack_value"], 0.0, 1.0), ids)
        # a copy with one objective_bound moved off bound + threshold
        entry = json.loads((directory / "robust_ood.json").read_text())
        meta = entry["certificates"][0]["metadata"]
        meta["objective_bound"] = float.hex(float.fromhex(meta["objective_bound"]) - 0.25)
        (directory / "robust_ood_copy.json").write_text(json.dumps(entry))
        result = self.run_auc(tmp_path, str(directory), ids)
        assert result.exit_code == 2
        assert "bad certificate file robust_ood_copy.json" in result.output

    @pytest.mark.parametrize(
        "ids",
        [{"scores": [0.9]}, ["0.9"], [[0.9]], [], [0.9, None], [1.7], [-0.1]],
        ids=["object", "strings", "nested", "empty", "null", "above-one", "below-zero"],
    )
    def test_malformed_id_scores_exit_two(self, tmp_path, ids):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]])
        result = self.run_auc(tmp_path, certs, ids)
        assert result.exit_code == 2
        assert "error: " in result.output and "id scores" in result.output
        assert not (tmp_path / "auc.json").exists()

    @pytest.mark.parametrize("content", [b"[0.9, \xff]", b"[" * 200_000 + b"]" * 200_000],
                             ids=["not-utf8", "nested"])
    def test_unreadable_id_scores_exit_two(self, tmp_path, content):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]])
        id_path = tmp_path / "ids.json"
        id_path.write_bytes(content)
        out = tmp_path / "auc.json"
        result = run_cli(["auc", "--id-scores", str(id_path), "--certs", certs, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error: cannot read id scores" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [b'{"certificates": "\xff"}', b"[" * 200_000 + b"]" * 200_000,
         b'{"certificates": [{"metadata": {"objective_bound": "0xzz"}}]}'],
        ids=["not-utf8", "nested", "bad-hex-float"],
    )
    def test_unreadable_certificate_file_exits_two(self, tmp_path, content):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3], [0.1, 0.4]])
        (tmp_path / "certs" / "sample_1.json").write_bytes(content)
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2, result.output
        assert "error: " in result.output and "certificate file sample_1.json" in result.output
        assert not (tmp_path / "auc.json").exists()

    def test_unwritable_out_exits_two(self, tmp_path):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]])
        id_path = tmp_path / "ids.json"
        id_path.write_text(json.dumps([0.9]))
        out = tmp_path / "missing" / "auc.json"
        result = run_cli(["auc", "--id-scores", str(id_path), "--certs", certs, "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "error: cannot write output" in result.output

    def test_matches_brute_force(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 50
        per_sample = [[float(b) for b in rng.random(3)] for _ in range(n)]
        certs = self.make_cert_dir(tmp_path, per_sample)
        ids = rng.random(40)
        id_path = tmp_path / "ids.json"
        id_path.write_text(json.dumps(ids.tolist()))
        out = tmp_path / "auc.json"
        run_cli(["auc", "--id-scores", str(id_path), "--certs", certs, "--out", str(out)])
        doc = json.loads(out.read_text())
        scores = np.array([max(b) for b in per_sample])
        assert doc["gauc"] == pytest.approx(guaranteed_auc(scores, ids), abs=1e-12)
