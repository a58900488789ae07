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
from funclag.cli import main
from funclag.jsonio import decode_reals
from funclag.specs import guaranteed_auc

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
        spec = write_spec(tmp_path, type="dist_robust_ood", sigma=0.1)
        result = CliRunner().invoke(
            main,
            ["verify", "--model", MODEL, "--spec", spec, "--family", "linear",
             "--out", str(tmp_path / "cert.json")],
        )
        assert result.exit_code == 2

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
        # then overflows in its certify solve, a quadratic one in the
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

    def test_exact_cap_below_output_width(self, tmp_path):
        # 3 outputs over --exact-cap 2: train and certify steps both take
        # the affine grid bound
        spec = write_spec(tmp_path, p_max=0.2)
        out = tmp_path / "cert.json"
        result = run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--steps", "4", "--certify-every", "2",
             "--exact-cap", "2", "--grid-n", "4", "--out", str(out)]
        )
        assert result.exit_code in (0, 1), result.output
        doc = decode_reals(json.loads(out.read_text()))
        assert len(doc["certificates"]) == 3
        assert all(np.isfinite(c["bound"]) for c in doc["certificates"])

    @pytest.mark.parametrize(
        "flag, value",
        [("--certify-every", "0"), ("--decay-every", "0"), ("--lr", "nan"), ("--grid-n", "1")],
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
         ("epsilon", math.inf), ("input", [math.nan] + [0.5] * 5), ("sigma", math.inf)],
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
         ({"clip": 1}, "clip")],
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
        from funclag.dual import Certificate

        for entry in doc["certificates"]:
            assert entry["multipliers"][0]["family"] == family
            cert = Certificate.from_jsonable(entry)
            rebuilt = cert.to_jsonable()
            assert rebuilt["bound"] == entry["bound"]
            assert rebuilt["multipliers"] == entry["multipliers"]

    def test_doctored_certificate_is_rejected(self, tmp_path):
        spec = write_spec(tmp_path, p_max=0.05)
        out = tmp_path / "cert.json"
        run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--steps", "0", "--no-attack",
             "--out", str(out)]
        )
        entry = decode_reals(json.loads(out.read_text()))["certificates"][0]
        assert entry["bound"] > 0.0 and entry["verified"] is False
        from funclag.dual import Certificate

        Certificate.from_jsonable(entry)
        with pytest.raises(ValueError, match="contradicts"):
            Certificate.from_jsonable({**entry, "verified": True})

    def test_non_finite_bound_is_rejected(self, tmp_path):
        # a NaN bound with verified false passes the sign check on its own
        spec = write_spec(tmp_path, p_max=0.05)
        out = tmp_path / "cert.json"
        run_cli(
            ["verify", "--model", MODEL, "--spec", spec, "--steps", "0", "--no-attack",
             "--out", str(out)]
        )
        entry = decode_reals(json.loads(out.read_text()))["certificates"][0]
        from funclag.dual import Certificate

        with pytest.raises(ValueError, match="not finite"):
            Certificate.from_jsonable({**entry, "bound": math.nan, "verified": False})

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

    def test_sampled_activations_inside_dumped_boxes(self, tmp_path):
        spec = write_spec(tmp_path)
        out = tmp_path / "bounds.json"
        run_cli(["bounds", "--model", MODEL, "--spec", spec, "--out", str(out)])
        doc = json.loads(out.read_text())
        from funclag import forward_sample, load_model

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
    def make_cert_dir(self, tmp_path, per_sample_bounds, attacks=None):
        directory = tmp_path / "certs"
        directory.mkdir()
        for i, bounds in enumerate(per_sample_bounds):
            certs = []
            for j, bound in enumerate(bounds):
                metadata = {"objective_bound": float.hex(float(bound)), "threshold": float.hex(0.5)}
                if attacks is not None:
                    metadata["attack_value"] = float.hex(float(attacks[i][j]))
                    metadata["attack_stderr"] = float.hex(0.0)
                certs.append(
                    {"bound": float.hex(float(bound - 0.5)), "verified": bound <= 0.5,
                     "trace": [], "multipliers": [], "metadata": metadata, "fingerprint": {}}
                )
            (directory / f"sample_{i}.json").write_text(
                json.dumps({"verified": False, "bound": float.hex(0.0), "certificates": certs})
            )
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

    def test_empty_certificate_list_exits_two(self, tmp_path):
        certs = self.make_cert_dir(tmp_path, [[]])
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2
        assert "sample_0.json" in result.output

    @pytest.mark.parametrize("field", ["objective_bound", "attack_value"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_two(self, tmp_path, field, value):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]], attacks=[[0.1, 0.2]])
        path = tmp_path / "certs" / "sample_0.json"
        doc = json.loads(path.read_text())
        doc["certificates"][1]["metadata"][field] = value
        path.write_text(json.dumps(doc))
        result = self.run_auc(tmp_path, certs)
        assert result.exit_code == 2
        assert not (tmp_path / "auc.json").exists()

    @pytest.mark.parametrize("ids", [{"scores": [0.9]}, ["0.9"], [[0.9]], [], [0.9, None]],
                             ids=["object", "strings", "nested", "empty", "null"])
    def test_malformed_id_scores_exit_two(self, tmp_path, ids):
        certs = self.make_cert_dir(tmp_path, [[0.2, 0.3]])
        result = self.run_auc(tmp_path, certs, ids)
        assert result.exit_code == 2
        assert "id scores" in result.output

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
