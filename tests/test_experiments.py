import csv
import hashlib
import math
import os
import re
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from megsim import channel as ch
from megsim import (config, corpus, experiments, nn, power_rl, protocol,
                    seedcodec)
from megsim.cli import main as cli_main
from megsim.util import write_csv


class TestConfig:
    def test_canonical_hash_stable(self):
        a = config.desk_config()
        b = config.desk_config()
        assert config.config_hash(a) == config.config_hash(b)
        assert config.config_hash(a) != config.config_hash(
            replace(a, seed=1))

    @pytest.mark.parametrize("preset, digests", [
        ("desk", ("f068647645a2", "77132a9e52a3be96", "23d1449d1100",
                  "3e42cfbd06bf", "bfc87070010c")),
        ("paper-arithmetic", ("b194f6c345e9", "d769ee011f9e611f",
                              "b4f8898f03cd", "e73bb5347f83",
                              "8e8558f68f0b")),
    ])
    def test_pinned_digests(self, preset, digests):
        # every cached bundle and CSV is keyed on these; a schema rewrite
        # must leave them alone
        cfg = config.preset_config(preset)
        rendered = config.render_config(cfg).encode("utf-8")
        assert (config.config_hash(cfg),
                hashlib.sha256(rendered).hexdigest()[:16],
                config.config_hash(cfg, experiments._AE_SECTIONS),
                config.config_hash(cfg, experiments._DN_SECTIONS),
                experiments._codec_hash(cfg, 0.5)) == digests

    def test_every_field_sits_in_exactly_one_section(self):
        attrs = [attr for rows in config._SCHEMA.values()
                 for _, attr, _ in rows]
        assert sorted(attrs) == sorted(
            f.name for f in fields(config.ExperimentConfig))

    def test_file_round_trip_and_key_order(self, tmp_path):
        cfg = replace(config.desk_config(), seed=42, codec_rates=(0.3, 0.5))
        path = tmp_path / "run.cfg"
        path.write_text(config.render_config(cfg))
        loaded = config.load_config(str(path))
        assert config.config_hash(loaded) == config.config_hash(cfg)
        # scrambled key order parses to the same config
        lines = path.read_text().splitlines()
        scrambled = []
        section = []
        for ln in lines:
            if ln.startswith("["):
                scrambled.extend(sorted(section, reverse=True))
                section = []
                scrambled.append(ln)
            elif ln.strip():
                section.append(ln)
        scrambled.extend(sorted(section, reverse=True))
        path2 = tmp_path / "scrambled.cfg"
        path2.write_text("\n".join(scrambled))
        assert config.config_hash(config.load_config(str(path2))) \
            == config.config_hash(cfg)

    def test_percent_in_a_value_round_trips(self, tmp_path, monkeypatch):
        # values are read literally: no '%' interpolation
        for name in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(name)
        cfg = replace(config.desk_config(), eval_prompt="50% blob %(x)s %%")
        path = tmp_path / "percent.cfg"
        path.write_text(config.render_config(cfg), encoding="utf-8")
        loaded = config.load_config(str(path))
        assert loaded.eval_prompt == "50% blob %(x)s %%"
        assert config.config_hash(loaded) == config.config_hash(cfg)

    @given(st.text(st.characters(exclude_categories=("Cs",)), min_size=1))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_canonical_prompt_round_trips(self, tmp_path, monkeypatch,
                                                text):
        # surrogates are excluded: no UTF-8 file can hold one
        prompt = " ".join(text.split())
        assume(prompt)
        for name in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(name)
        cfg = replace(config.desk_config(), eval_prompt=prompt)
        path = tmp_path / "prompt.cfg"
        path.write_text(config.render_config(cfg), encoding="utf-8")
        loaded = config.load_config(str(path))
        assert loaded.eval_prompt == prompt
        assert config.config_hash(loaded) == config.config_hash(cfg)

    @given(st.data())
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.filter_too_much])
    def test_every_valid_config_round_trips(self, tmp_path, monkeypatch,
                                            data):
        # up to four fields at a time, each set to any value of its type;
        # whatever validate() accepts must come back with its hash
        for name in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(name)
        finite = st.floats(allow_nan=False, allow_infinity=False)
        rate = st.one_of(st.sampled_from([0.5, 0.25]), st.floats(0.0, 2.0),
                         finite)
        by_type = {
            int: st.one_of(st.integers(0, 2 ** 12), st.integers(0, 2 ** 70)),
            float: finite,
            tuple: st.lists(finite, min_size=1, max_size=4).map(tuple),
            str: st.text(st.characters(exclude_categories=("Cs",))),
        }
        by_name = {
            "preset": st.sampled_from(config.PRESETS),
            "channel_kind": st.sampled_from(ch.KINDS),
            "eval_prompt": st.lists(st.text(st.characters(
                exclude_categories=("Cs", "Zs", "Zl", "Zp", "Cc")),
                min_size=1), min_size=1, max_size=3).map(" ".join),
            "codec_rates": st.lists(rate, min_size=1, max_size=3)
            .map(lambda rates: tuple(rates) + (0.5,)),
            "power_rate": rate, "eval_rate": rate,
        }
        chosen = data.draw(st.lists(
            st.sampled_from(fields(config.ExperimentConfig)), min_size=1,
            max_size=4, unique_by=lambda f: f.name))
        changes = {f.name: data.draw(by_name.get(f.name, by_type[f.type]),
                                     label=f.name) for f in chosen}
        try:
            cfg = replace(config.desk_config(), **changes)
        except ValueError:
            assume(False)
        path = tmp_path / "any.cfg"
        path.write_text(config.render_config(cfg), encoding="utf-8")
        loaded = config.load_config(str(path))
        assert config.config_hash(loaded) == config.config_hash(cfg)

    def test_line_break_in_out_refused(self):
        # the file would read "out = a" and then fail on the next line
        for out in ("a\nb", "a\rb", "a\n[sweep]\ntrials = 9"):
            with pytest.raises(ValueError, match="line break"):
                replace(config.desk_config(), out=out)

    def test_edge_whitespace_in_out_refused(self):
        # a config file's value is read back stripped: " x" would be "x"
        for out in (" x", "x ", "\tx", "x\u3000", " "):
            with pytest.raises(ValueError, match=re.escape(
                    "[run] out must not start or end with whitespace")):
                replace(config.desk_config(), out=out)
        assert replace(config.desk_config(), out="a b").out == "a b"

    def test_non_canonical_eval_prompt_refused(self):
        # a file could not keep these spellings apart from the canonical one
        for prompt in (" large rings", "large rings ", "large  rings",
                       "large\nrings", "large\trings", "large\u3000rings"):
            with pytest.raises(ValueError, match=re.escape(
                    "[eval] prompt must be single-spaced words")):
                replace(config.desk_config(), eval_prompt=prompt)
        assert replace(config.desk_config(),
                       eval_prompt="large rings").eval_prompt == "large rings"

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[codec]\nwat = 1\n")
        with pytest.raises(ValueError, match="wat"):
            config.load_config(str(path))
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ValueError, match="nonsense"):
            config.load_config(str(path))

    @pytest.mark.parametrize("section, key", [
        ("codec", "rates"), ("sweep", "snrs_db"), ("power", "budgets")])
    def test_empty_list_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "empty.cfg"
        path.write_text(f"[{section}]\n{key} =\n")
        with pytest.raises(ValueError, match=rf"\[{section}\] {key} "):
            config.load_config(str(path))

    @pytest.mark.parametrize("attr, name", [
        ("ae_hidden", "[autoencoder] hidden"),
        ("ae_encoder_hidden", "[autoencoder] encoder_hidden"),
        ("dn_hidden", "[denoiser] hidden"), ("codec_hidden", "[codec] hidden"),
        ("ppo_hidden", "[ppo] hidden")])
    def test_zero_width_rejected(self, tmp_path, capsys, monkeypatch, attr,
                                 name):
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        with pytest.raises(ValueError, match=re.escape(f"{name} must be")):
            config.load_config(overrides={attr: 0})
        section, key = name[1:].split("] ")
        path = tmp_path / "zero.cfg"
        path.write_text(f"[{section}]\n{key} = 0\n")
        assert cli_main(["--config", str(path), "train"]) == 2
        err = capsys.readouterr().err
        assert err == f"megsim: error: {name} must be >= 1\n"

    @pytest.mark.parametrize("section, key, attr", [
        (section, key, attr) for section, rows in config._SCHEMA.items()
        for key, attr, kind in rows if kind is int])
    def test_count_below_its_minimum_rejected(self, monkeypatch, section, key,
                                              attr):
        for name in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(name)
        # the seed feeds numpy's generators, a batch Frechet score needs
        # two prompts, and every other count one
        low = {"seed": 0, "eval_prompts": 2, "power_prompts": 2}.get(attr, 1)
        with pytest.raises(ValueError, match=re.escape(
                f"[{section}] {key} must be >= {low}")):
            config.load_config(overrides={attr: low - 1})
        if low != 1:
            assert getattr(config.load_config(overrides={attr: low}),
                           attr) == low

    @pytest.mark.parametrize("section, key, attr, kind", [
        (section, key, attr, kind) for section, rows in config._SCHEMA.items()
        for key, attr, kind in rows if kind in (float, tuple)])
    def test_non_finite_float_rejected(self, section, key, attr, kind):
        desk = config.desk_config()
        for bad in (math.nan, math.inf, -math.inf):
            value = getattr(desk, attr)[:1] + (bad,) if kind is tuple else bad
            with pytest.raises(ValueError, match=re.escape(
                    f"[{section}] {key} must be finite")):
                replace(desk, **{attr: value})

    def test_non_positive_power_budget_rejected(self):
        desk = config.desk_config()
        for budgets in ((0.0,), (2.0, -1.0), (-0.0, 8.0)):
            with pytest.raises(ValueError, match=re.escape(
                    "[power] budgets must be positive")):
                replace(desk, power_budgets=budgets)
        assert replace(desk, power_budgets=(1e-6,)).power_budgets == (1e-6,)

    def test_blank_eval_prompt_refused(self, tmp_path, capsys, monkeypatch):
        for name in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(name)
        message = "[eval] prompt must hold at least one word"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(config.desk_config(), eval_prompt=" \t").validate()
        path = tmp_path / "blank.cfg"
        path.write_text("[eval]\nprompt =   \n")
        out = tmp_path / "out"
        assert cli_main(["--config", str(path), "--out", str(out),
                         "eval"]) == 2
        assert capsys.readouterr().err == f"megsim: error: {message}\n"
        assert not out.exists()

    def test_eval_rate_without_codec_refused(self, tmp_path, capsys,
                                             monkeypatch):
        for name in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(name)
        message = "[eval] rate 0.3 is not one of [codec] rates"
        with pytest.raises(ValueError, match=re.escape(message)):
            replace(config.desk_config(), eval_rate=0.3)
        path = tmp_path / "rate.cfg"
        path.write_text("[eval]\nrate = 0.3\n")
        out = tmp_path / "out"
        assert cli_main(["--config", str(path), "--out", str(out),
                         "eval"]) == 2
        assert capsys.readouterr().err == f"megsim: error: {message}\n"
        assert not out.exists()

    def test_checked_when_built(self, tmp_path, monkeypatch):
        for name in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(name)
        desk = config.desk_config()
        with pytest.raises(ValueError, match=re.escape("[ppo] clip")):
            replace(desk, ppo_clip=0.0)
        with pytest.raises(FrozenInstanceError):
            desk.seed = 1
        # a file value that an override replaces is never checked alone
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nseed = -1\n")
        assert config.load_config(str(path), overrides={"seed": 3}).seed == 3
        # nor is a file checked against a preset other than its own
        path.write_text("[run]\npreset = paper-arithmetic\n\n"
                        "[power]\nrate = 0.3\n")
        cfg = config.load_config(str(path))
        assert (cfg.preset, cfg.power_rate) == ("paper-arithmetic", 0.3)

    def test_parse_error_names_its_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[ppo]\nupdate_rounds = 1.5\n")
        with pytest.raises(ValueError, match=r"\[ppo\] update_rounds = "
                                             r"'1\.5': invalid literal"):
            config.load_config(str(path))

    def test_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MEGSIM_SEED", "99")
        monkeypatch.setenv("MEGSIM_OUT", str(tmp_path / "envout"))
        monkeypatch.setenv("MEGSIM_JOBS", "3")
        cfg = config.load_config()
        assert cfg.seed == 99 and cfg.out.endswith("envout")
        assert cfg.jobs == 3
        # explicit overrides beat the environment
        cfg2 = config.load_config(overrides={"seed": 7})
        assert cfg2.seed == 7

    def test_dimension_contracts(self):
        with pytest.raises(ValueError, match="divisible"):
            replace(config.desk_config(), height=30).validate()
        with pytest.raises(ValueError, match="overhead"):
            replace(config.desk_config(), channels=1, latent_channels=2,
                    codec_rates=(0.7,), power_rate=0.7).validate()
        with pytest.raises(ValueError, match="smaller"):
            replace(config.desk_config(), latent_channels=40).validate()

    def test_ppo_ranges_rejected(self):
        desk = config.desk_config()
        for clip in (0.0, 1.0):
            with pytest.raises(ValueError, match=re.escape(
                    "[ppo] clip must lie in (0, 1)")):
                replace(desk, ppo_clip=clip).validate()
        for gamma in (0.0, 1.5):
            with pytest.raises(ValueError, match=re.escape(
                    "[ppo] gamma must lie in (0, 1]")):
                replace(desk, ppo_gamma=gamma).validate()
        replace(desk, ppo_clip=0.5, ppo_gamma=0.5).validate()

    def test_unknown_channel_kind_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "[channel] kind 'foo' is not one of awgn, rayleigh_block")):
            replace(config.desk_config(), channel_kind="foo").validate()

    def test_repeated_codec_rate_refused(self, tmp_path):
        # two codecs of one rate would share one bundle file, and two
        # within 1/65536 one seed frame header value
        for rates in ((0.5, 0.3, 0.5), (0.5, 0.500001)):
            with pytest.raises(ValueError, match=re.escape(
                    "[codec] rates repeats a rate")):
                replace(config.desk_config(), codec_rates=rates)
        path = tmp_path / "twice.cfg"
        path.write_text("[codec]\nrates = 0.5, 0.5\n")
        with pytest.raises(ValueError, match="repeats"):
            config.load_config(str(path))
        # a rate whose fixed-point value overflows is refused as out of
        # range before it is compared
        with pytest.raises(ValueError, match="outside"):
            replace(config.desk_config(), codec_rates=(1e304, 0.5))

    def test_presets_are_channel_preserving(self):
        # latent element count times downsample^2 equals the pixel count
        for cfg in (config.desk_config(), config.paper_arithmetic_config()):
            cfg.validate()
            assert cfg.latent_channels == cfg.channels
            assert cfg.latent_size * cfg.downsample ** 2 == cfg.pixel_count


class TestTrainCaching:
    def test_rerun_hits_cache(self, tiny_cfg):
        experiments.cmd_train(tiny_cfg)
        result = experiments.cmd_train(tiny_cfg)
        assert set(result.actions.values()) == {"cached"}

    def test_cold_train_builds_the_corpus_once(self, tiny_cfg, tmp_path,
                                               monkeypatch):
        cfg = replace(tiny_cfg, out=str(tmp_path / "cold")).validate()
        calls = []
        build = corpus.build_corpus
        monkeypatch.setattr(corpus, "build_corpus",
                            lambda *args, **kw: calls.append(args)
                            or build(*args, **kw))
        assert set(experiments.cmd_train(cfg).actions.values()) == {"trained"}
        assert len(calls) == 1
        calls.clear()
        assert set(experiments.cmd_train(cfg).actions.values()) == {"cached"}
        assert calls == []

    def test_deleting_codec_retrains_only_codec(self, tiny_cfg):
        experiments.cmd_train(tiny_cfg)
        out = experiments.bundle_dir(tiny_cfg)
        os.remove(os.path.join(out, "codec_r0.5.bin"))
        result = experiments.cmd_train(tiny_cfg)
        assert result.actions["autoencoder"] == "cached"
        assert result.actions["denoiser"] == "cached"
        assert result.actions["codec[0.5]"] == "trained"
        assert list(result.losses) == ["codec[0.5]"]

    def test_loss_histories_kept_for_retrained_stages(self, tiny_cfg,
                                                      tmp_path):
        cfg = replace(tiny_cfg, out=str(tmp_path / "cold")).validate()
        cold = experiments.cmd_train(cfg).losses
        assert {stage: len(curve) for stage, curve in cold.items()} == {
            "autoencoder": cfg.ae_steps, "denoiser": cfg.dn_steps,
            "codec[0.5]": cfg.codec_epochs}
        assert all(type(x) is float and np.isfinite(x)
                   for curve in cold.values() for x in curve)
        assert experiments.cmd_train(cfg).losses == {}

    def test_prompt_geometry_trained_is_the_geometry_served(self, tiny_cfg,
                                                            tmp_path):
        # the denoiser is trained at the config's prompt geometry, so the
        # bundle loads and serves at the geometry it was trained with
        cfg = replace(tiny_cfg, out=str(tmp_path / "prompt"), embed_dim=16,
                      max_tokens=4).validate()
        trained = experiments.cmd_train(cfg).bundle.denoiser
        loaded = experiments.load_bundle(cfg).denoiser
        assert (trained.embed_dim, trained.max_tokens) == (16, 4)
        assert (loaded.embed_dim, loaded.max_tokens) == (16, 4)
        assert trained.net.flat.tobytes() == loaded.net.flat.tobytes()
        rows = experiments.cmd_sweep(cfg)["rows"]
        assert len(rows) == 3 * len(cfg.sweep_snrs_db) * cfg.sweep_trials

    def test_adding_a_rate_trains_only_the_new_codec(self, tiny_cfg,
                                                     tiny_bundle):
        grown = replace(tiny_cfg, codec_rates=(0.5, 0.3)).validate()
        actions = experiments.cmd_train(grown).actions
        assert actions == {"autoencoder": "cached", "denoiser": "cached",
                           "codec[0.5]": "cached", "codec[0.3]": "trained"}

    def test_codec_cache_names_its_position(self, tiny_cfg, tmp_path):
        # codec k of [codec] rates trains from a seed derived from k, so a
        # codec cached at another position is retrained, and the bundle
        # holds the weights a fresh training of this config writes
        short = replace(tiny_cfg, ae_steps=50, dn_steps=40, codec_epochs=5,
                        out=str(tmp_path / "history"), codec_rates=(0.5,))
        grown = replace(short, codec_rates=(0.3, 0.5))
        experiments.cmd_train(short)
        actions = experiments.cmd_train(grown).actions
        assert actions == {"autoencoder": "cached", "denoiser": "cached",
                           "codec[0.3]": "trained", "codec[0.5]": "trained"}
        fresh = experiments.cmd_train(
            replace(grown, out=str(tmp_path / "fresh"))).bundle
        kept = experiments.load_bundle(grown)
        for rate in grown.codec_rates:
            assert kept.codecs[rate].net.flat.tobytes() \
                == fresh.codecs[rate].net.flat.tobytes(), rate

    def test_manifest_lists_files_with_hashes(self, tiny_cfg):
        import json
        result = experiments.cmd_train(tiny_cfg)
        manifest = json.load(open(result.manifest_path))
        files = os.listdir(result.bundle_dir)
        for name in files:
            if name.endswith(".bin"):
                assert name in manifest["files"]
                assert len(manifest["files"][name]) == 64

    def _copied_bundle(self, tiny_cfg, tmp_path):
        import shutil
        experiments.cmd_train(tiny_cfg)
        cfg = replace(tiny_cfg, out=str(tmp_path / "copy")).validate()
        shutil.copytree(experiments.bundle_dir(tiny_cfg),
                        experiments.bundle_dir(cfg))
        return cfg

    def test_encoder_width_is_part_of_the_artifact_identity(self, tiny_cfg,
                                                            tmp_path):
        import shutil
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        narrow = replace(cfg, ae_encoder_hidden=16).validate()
        assert experiments.bundle_dir(narrow) != experiments.bundle_dir(cfg)
        old, new = (experiments._bundle_files(c) for c in (cfg, narrow))
        assert all(new[name][1] != old[name][1] for name in old)
        # files an older width wrote where the new width looks are stale
        shutil.copytree(experiments.bundle_dir(cfg),
                        experiments.bundle_dir(narrow))
        assert set(experiments.bundle_status(narrow).values()) == {"stale"}
        result = experiments.cmd_train(narrow)
        assert set(result.actions.values()) == {"trained"}
        encoder = result.bundle.autoencoder.encoder.descriptors()
        assert encoder[0]["out_features"] == 16

    def _vouch_for(self, cfg, name):
        """Record the file's current SHA-256 in the manifest, as if the
        manifest had been written over it."""
        import json

        from megsim.util import sha256_file
        path = os.path.join(experiments.bundle_dir(cfg), "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        manifest["files"][name] = sha256_file(
            os.path.join(experiments.bundle_dir(cfg), name))
        with open(path, "w") as fh:
            json.dump(manifest, fh)

    def test_truncated_file_is_a_miss_and_retrained(self, tiny_cfg,
                                                    tmp_path):
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        path = os.path.join(experiments.bundle_dir(cfg), "ae_decoder.bin")
        size = os.path.getsize(path)
        for cut in (size - 5, 6):     # inside the weights, inside the header
            with open(path, "r+b") as fh:
                fh.truncate(cut)
            assert experiments.bundle_status(cfg)["ae_decoder.bin"] \
                == "corrupt"
            # unreadable even where the manifest vouches for these bytes
            self._vouch_for(cfg, "ae_decoder.bin")
            assert experiments.bundle_status(cfg)["ae_decoder.bin"] \
                == "corrupt"
        result = experiments.cmd_train(cfg)
        assert result.actions["autoencoder"] == "trained"
        assert result.actions["denoiser"] == "cached"
        assert os.path.getsize(path) == size

    def test_unrelated_load_error_propagates(self, tiny_cfg, tmp_path,
                                             monkeypatch):
        cfg = self._copied_bundle(tiny_cfg, tmp_path)

        def broken(path):
            raise RuntimeError("not a file-format problem")

        monkeypatch.setattr(experiments.nn, "network_extra", broken)
        for command in (experiments.bundle_status, experiments.cmd_train,
                        experiments.load_bundle):
            with pytest.raises(RuntimeError, match="file-format"):
                command(cfg)

    def test_flipped_weight_bit_is_a_miss_and_retrained(self, tiny_cfg,
                                                        tmp_path):
        from megsim import nn
        from megsim.errors import BundleError
        from megsim.util import sha256_file
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        path = os.path.join(experiments.bundle_dir(cfg), "ae_decoder.bin")
        digest = sha256_file(path)
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0x01                  # one bit of the last weight
        open(path, "wb").write(bytes(data))
        # readable and trained for this config: only the SHA-256 tells
        ae_hash = config.config_hash(cfg, experiments._AE_SECTIONS)
        assert nn.network_extra(path)["dep_hash"] == ae_hash
        status = experiments.bundle_status(cfg)
        assert status.pop("ae_decoder.bin") == "corrupt"
        assert set(status.values()) == {"ok"}
        for command in (experiments.load_bundle, experiments.cmd_sweep,
                        experiments.cmd_power):
            with pytest.raises(BundleError,
                               match=r"ae_decoder\.bin corrupt.*megsim train"):
                command(cfg)
        result = experiments.cmd_train(cfg)
        assert result.actions["autoencoder"] == "trained"
        assert result.actions["denoiser"] == "cached"
        assert sha256_file(path) == digest

    def test_cached_train_hashes_each_file_once(self, tiny_cfg, tmp_path,
                                                monkeypatch):
        from megsim.util import sha256_file
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        out = experiments.bundle_dir(cfg)
        manifest_path = os.path.join(out, "manifest.json")
        manifest = open(manifest_path, "rb").read()
        bins = sorted(f for f in os.listdir(out) if f.endswith(".bin"))
        hashed = []
        monkeypatch.setattr(experiments, "sha256_file",
                            lambda path: hashed.append(os.path.basename(path))
                            or sha256_file(path))
        result = experiments.cmd_train(cfg)
        assert set(result.actions.values()) == {"cached"}
        assert sorted(hashed) == bins
        assert open(manifest_path, "rb").read() == manifest
        # a retrained stage's files are hashed again, and only those
        path = os.path.join(out, "ae_decoder.bin")
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0x01
        open(path, "wb").write(bytes(data))
        hashed.clear()
        assert experiments.cmd_train(cfg).actions["autoencoder"] == "trained"
        assert sorted(hashed) == sorted(bins + ["ae_decoder.bin",
                                                "ae_encoder.bin"])
        assert open(manifest_path, "rb").read() == manifest

    def test_truncated_manifest_retrains_every_stage(self, tiny_cfg,
                                                     tmp_path):
        import json

        from megsim.errors import BundleError
        from megsim.util import sha256_file
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        out = experiments.bundle_dir(cfg)
        manifest_path = os.path.join(out, "manifest.json")
        with open(manifest_path, "r+b") as fh:
            fh.truncate(os.path.getsize(manifest_path) // 2)
        names = ["ae_encoder.bin", "ae_decoder.bin", "denoiser.bin",
                 "codec_r0.5.bin"]
        assert experiments.bundle_status(cfg) == dict.fromkeys(names,
                                                                "corrupt")
        with pytest.raises(BundleError) as refused:
            experiments.load_bundle(cfg)
        assert all(f"{name} corrupt" in str(refused.value)
                   for name in names)
        result = experiments.cmd_train(cfg)
        assert set(result.actions.values()) == {"trained"}
        with open(manifest_path) as fh:
            files = json.load(fh)["files"]
        assert {name: files[name] for name in names} == {
            name: sha256_file(os.path.join(out, name)) for name in names}
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
        assert set(experiments.bundle_status(cfg).values()) == {"ok"}

    def test_unlisted_and_missing_files_named(self, tiny_cfg, tmp_path):
        import json
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        out = experiments.bundle_dir(cfg)
        with open(os.path.join(out, "manifest.json")) as fh:
            manifest = json.load(fh)
        del manifest["files"]["denoiser.bin"]
        with open(os.path.join(out, "manifest.json"), "w") as fh:
            json.dump(manifest, fh)
        os.remove(os.path.join(out, "codec_r0.5.bin"))
        assert experiments.bundle_status(cfg) == {
            "ae_encoder.bin": "ok", "ae_decoder.bin": "ok",
            "denoiser.bin": "corrupt", "codec_r0.5.bin": "missing"}
        with pytest.raises(FileNotFoundError,
                           match=r"denoiser\.bin corrupt, "
                                 r"codec_r0\.5\.bin missing.*megsim train"):
            experiments.load_bundle(cfg)
        assert experiments.cmd_train(cfg).actions == {
            "autoencoder": "cached", "denoiser": "trained",
            "codec[0.5]": "trained"}

    def test_load_bundle_draws_nothing_and_matches_files(
            self, tiny_cfg, tiny_bundle, tmp_path, monkeypatch):
        import numpy as np

        from megsim import nn
        made = []

        def counting(make):
            def count(*args, **kwargs):
                made.append(args)
                return make(*args, **kwargs)
            return count

        # megsim's own generators are util's np.random.default_rng PCG64s
        for name in ("default_rng", "PCG64"):
            monkeypatch.setattr(np.random, name,
                                counting(getattr(np.random, name)))
        bundle = experiments.load_bundle(tiny_cfg)
        # the encoder is loaded only by training, here a cached train
        cached = experiments.cmd_train(tiny_cfg)
        monkeypatch.undo()
        assert made == []
        assert set(cached.actions.values()) == {"cached"}
        assert bundle.autoencoder.encoder is None
        codec = bundle.codecs[0.5]
        nets = {"ae_encoder.bin": cached.bundle.autoencoder.encoder,
                "ae_decoder.bin": bundle.autoencoder.decoder,
                "denoiser.bin": bundle.denoiser.net,
                "codec_r0.5.bin": codec.net}
        for name, net in nets.items():
            path = os.path.join(experiments.bundle_dir(tiny_cfg), name)
            again = tmp_path / name
            nn.save_network(again, net, extra=nn.network_extra(path))
            assert again.read_bytes() == open(path, "rb").read()

    def test_run_time_bundle_builds_no_encoder(self, tiny_cfg, tiny_bundle,
                                               monkeypatch):
        from megsim.errors import BundleError
        read, load = [], experiments.nn.load_network

        def reading(path, *nets):
            read.append(os.path.basename(path))
            return load(path, *nets)

        monkeypatch.setattr(experiments.nn, "load_network", reading)
        bundle = experiments.load_bundle(tiny_cfg)
        monkeypatch.undo()
        assert bundle.autoencoder.encoder is None
        assert "ae_encoder.bin" not in read and "ae_decoder.bin" in read
        images = np.zeros((1,) + tiny_cfg.image_shape, dtype=np.float32)
        with pytest.raises(BundleError, match="holds only the decoder"):
            bundle.autoencoder.encode(images)
        # the bundle that training returns still encodes
        assert tiny_bundle.autoencoder.encode(images).shape \
            == (1,) + tiny_cfg.latent_shape

    def test_tampered_or_stale_encoder_refused(self, tiny_cfg, tmp_path):
        from megsim import genmodel, nn
        from megsim.errors import BundleError
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        path = os.path.join(experiments.bundle_dir(cfg), "ae_encoder.bin")
        original = open(path, "rb").read()
        data = bytearray(original)
        data[-3] ^= 0x01
        open(path, "wb").write(bytes(data))
        with pytest.raises(BundleError,
                           match=r"\(ae_encoder\.bin corrupt\).*megsim train"):
            experiments.load_bundle(cfg)
        # intact by the manifest, but trained for another config
        encoder = genmodel.AutoencoderPair(cfg).encoder
        open(path, "wb").write(original)
        meta = nn.load_network(path, encoder)
        nn.save_network(path, encoder, extra={**meta, "dep_hash": "0" * 12})
        self._vouch_for(cfg, "ae_encoder.bin")
        with pytest.raises(BundleError,
                           match=r"\(ae_encoder\.bin stale\).*megsim train"):
            experiments.load_bundle(cfg)

    def test_cold_desk_train_digests(self, desk_cfg, desk_bundle):
        import json

        # desk preset, seed 0, as recorded with numpy 2 on OpenBLAS 0.3.31
        # (another BLAS kernel may sum in another order and move them)
        with open(os.path.join(experiments.bundle_dir(desk_cfg),
                               "manifest.json"), "rb") as fh:
            raw = fh.read()
        assert json.loads(raw)["files"] == {
            "ae_encoder.bin": "a4cd1e892145b1074db308b6e62b9e13"
                              "26295cc6c1b74929ae825fc00e224d78",
            "ae_decoder.bin": "7b759a8380b82250c2ac642b032133c5"
                              "fa0f1b34a588741cc64df36c9a06a440",
            "denoiser.bin": "c75635d52bb645abbf08c18ecc43904e"
                            "b955c9e9095251e1cccae1f93b64aed7",
            "codec_r0.5.bin": "d9fb600b31dbd5099d91f5b7f43fe74b"
                              "03c6e25def8b60378a274ea48c67da55"}
        assert hashlib.sha256(raw).hexdigest() == (
            "d88bacf6e2c28128c85fbae0a5c30032"
            "2f0e75dd6b977da7c49188dc8777aab8")

    def test_desk_sweep_and_eval_digests(self, desk_cfg, desk_bundle):
        # desk preset, seed 0, as recorded with numpy 2 on OpenBLAS 0.3.31
        # (another BLAS kernel may sum in another order and move them); a
        # change that only makes the program faster keeps these bytes
        want = {"sweep": "1995358312f77384efa011979f502c26"
                         "10739f7565af42458cb6210d5401296e",
                "eval": "eddf43eb981a935e179b1706557b5577"
                        "4d81ada3260c251e6986b32593eb33f1"}
        for command, digest in want.items():
            path = getattr(experiments, f"cmd_{command}")(desk_cfg)[
                f"{command}_csv"]
            with open(path, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, path

    def test_desk_power_digests(self, desk_cfg, desk_bundle):
        # desk preset, seed 0, one budget and 10 PPO rounds, as recorded
        # with numpy 2 on OpenBLAS 0.3.31 (another BLAS kernel may sum in
        # another order and move them); a change that only reshapes the
        # environment keeps these bytes
        cfg = replace(desk_cfg, power_budgets=(2.0,), ppo_update_rounds=10)
        experiments.cmd_power(cfg)
        want = {"power_summary.csv": "a93d8213369549d19ae0eb8cdbe5bc2c"
                                     "01d1848c9581050822941337aaa8f783",
                "curve_p2.0.csv": "6ccd3d7ecde66e0c908024e65e1a859a"
                                  "625de1db6e7cda008bf76343a97274ef",
                "agent_p2.0.bin": "30b51cc0839d6c1b5da4f7e330b9c625"
                                  "084b63f45ca6314be92044d75a3cc902"}
        for name, digest in want.items():
            with open(os.path.join(cfg.out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name

    def test_repeated_sweeps_keep_their_digests(self, desk_cfg, desk_bundle):
        # prompt rows and the extractor network are memoized per process,
        # so a second sweep and a sweep after cmd_power reuse them and must
        # still write the bytes pinned above (the plot medians too)
        want = {"sweep.csv": "1995358312f77384efa011979f502c26"
                             "10739f7565af42458cb6210d5401296e",
                "plot_psnr_db_r0.5.csv": "4f74504fbc7b2320c4228a56c512aa03"
                                         "f8319d12e1d3e5003bebe8f8d5756e87",
                "plot_fid_proxy_r0.5.csv": "eb8bf9008033bde822def3e8687344ed"
                                           "5bf5cb0137528c523550b78e54dda3f3"}
        power = replace(desk_cfg, power_budgets=(2.0,), ppo_update_rounds=1)
        for power_first in (False, False, True):
            if power_first:
                experiments.cmd_power(power)
            experiments.cmd_sweep(desk_cfg)
            for name, digest in want.items():
                with open(os.path.join(desk_cfg.out, name), "rb") as fh:
                    assert hashlib.sha256(fh.read()).hexdigest() == digest, \
                        name

    def test_stale_codec_refused(self, tiny_cfg, tmp_path):
        from megsim.errors import BundleError
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        stale = replace(cfg, codec_train_snr_db=0.0).validate()
        assert experiments.bundle_dir(stale) == experiments.bundle_dir(cfg)
        for command in (experiments.load_bundle, experiments.cmd_sweep,
                        experiments.cmd_power):
            with pytest.raises(BundleError,
                               match=r"codec_r0\.5\.bin.*megsim train"):
                command(stale)
        actions = experiments.cmd_train(stale).actions
        assert actions == {"autoencoder": "cached", "denoiser": "cached",
                           "codec[0.5]": "trained"}
        assert experiments.load_bundle(stale).codecs[0.5].train_snr_db == 0.0
        with pytest.raises(BundleError, match="codec_r0"):
            experiments.load_bundle(cfg)

    def test_missing_bundle_instructive_error(self, tmp_path):
        cfg = replace(config.desk_config(), out=str(tmp_path / "empty"))
        with pytest.raises(FileNotFoundError, match="megsim train"):
            experiments.load_bundle(cfg)

    def test_paper_preset_refuses_training(self, tmp_path):
        cfg = replace(config.paper_arithmetic_config(),
                      out=str(tmp_path / "paper"))
        with pytest.raises(ValueError, match="paper-arithmetic"):
            experiments.cmd_train(cfg)


class TestOutputsReplaced:
    def test_rerun_writes_new_files_with_the_same_bytes(self, tiny_cfg,
                                                        tiny_bundle,
                                                        tmp_path):
        # each output is a new file renamed into place, never the old one
        # truncated or renamed over: a hard link to the first run's file
        # keeps that run's bytes, as a copy would
        import shutil
        out = tmp_path / "out"
        cfg = replace(tiny_cfg, out=str(out), power_budgets=(2.0,)).validate()
        shutil.copytree(experiments.bundle_dir(tiny_cfg),
                        experiments.bundle_dir(cfg))

        def run():
            for command in ("train", "sweep", "eval", "power"):
                getattr(experiments, f"cmd_{command}")(cfg)
            return {os.path.relpath(os.path.join(root, name), out)
                    for root, _, names in os.walk(out) for name in names}

        first = run()
        # a cached train writes the manifest but not the weights
        outputs = sorted(f for f in first if not f.endswith(".bin")
                         or f.startswith("agent_"))
        assert {"manifest.json", "sweep.csv", "eval.csv",
                "power_summary.svg", "agent_p2.0.bin"} \
            <= {os.path.basename(f) for f in outputs}
        links = tmp_path / "links"
        links.mkdir()
        for k, name in enumerate(outputs):
            os.link(out / name, links / str(k))
        second = run()
        assert second == first
        assert [f for f in second if f.endswith(".tmp")] == []
        for k, name in enumerate(outputs):
            assert not os.path.samefile(out / name, links / str(k)), name
            assert (out / name).read_bytes() \
                == (links / str(k)).read_bytes(), name


class TestSweep:
    def test_desk_sweep_outputs(self, tiny_cfg, tiny_bundle):
        result = experiments.cmd_sweep(tiny_cfg)
        assert os.path.exists(result["sweep_csv"])
        text = open(result["sweep_csv"]).read()
        assert text.startswith(f"# {experiments.SWEEP_SCHEMA}")
        chash = config.config_hash(tiny_cfg)
        body = text.splitlines()[2:]
        assert body and all(line.startswith(chash) for line in body)
        # paired trials: every mode in a cell logs the same seed
        rows = [line.split(",") for line in body]
        by_cell = {}
        for r in rows:
            by_cell.setdefault((r[2], r[3], r[4]), set()).add(r[-1])
        assert all(len(seeds) == 1 for seeds in by_cell.values())
        for p in result["plots"]:
            assert os.path.exists(p)

    def test_sweep_deterministic(self, tiny_cfg, tiny_bundle):
        first = open(experiments.cmd_sweep(tiny_cfg)["sweep_csv"]).read()
        second = open(experiments.cmd_sweep(tiny_cfg)["sweep_csv"]).read()
        assert first == second

    def test_parallel_jobs_byte_identical(self, tiny_cfg, tiny_bundle,
                                          monkeypatch):
        grid = replace(tiny_cfg, sweep_snrs_db=(0.0, 10.0))
        sequential = open(experiments.cmd_sweep(grid)["sweep_csv"]).read()
        pids = []
        run = experiments.run_end_to_end
        monkeypatch.setattr(experiments, "run_end_to_end",
                            lambda *a: pids.append(os.getpid()) or run(*a))
        parallel = open(
            experiments.cmd_sweep(replace(grid, jobs=2))["sweep_csv"]).read()
        assert parallel == sequential
        # --jobs is accepted but inert: every chunk of cells runs in this
        # process, and at 4 prompts each of the grid's two cells is a chunk
        assert pids == [os.getpid()] * 2

    @staticmethod
    def _spy_phases(monkeypatch):
        """Record the cell count of every server batch and receiver chunk
        that cmd_sweep runs."""
        calls = {"served": [], "received": []}
        serve, run = experiments.serve_cells, experiments.run_end_to_end

        def served(bundle, prompts, rate, block_length, specs):
            calls["served"].append(len(specs))
            return serve(bundle, prompts, rate, block_length, specs)

        def received(bundle, cells):
            calls["received"].append(len(cells))
            return run(bundle, cells)

        monkeypatch.setattr(experiments, "serve_cells", served)
        monkeypatch.setattr(experiments, "run_end_to_end", received)
        return calls

    @pytest.mark.parametrize("prompts", [
        experiments.SWEEP_CHUNK_MIN_PROMPTS, 16])
    def test_chunked_sweep_equals_one_cell_chunks(self, tiny_cfg, tiny_bundle,
                                                  monkeypatch, prompts):
        # 6 cells, served in one batch and received in chunks of 4 and 2 at
        # the default SWEEP_CHUNK of 4; 10 prompts per cell is the fewest
        # served in batches, where a chunk's flat rows are fewest
        grid = replace(tiny_cfg, sweep_snrs_db=(-10.0, 10.0, 30.0),
                       sweep_trials=2, eval_prompts=prompts)
        whole = experiments.SWEEP_CHUNK
        calls = self._spy_phases(monkeypatch)
        chunked = open(experiments.cmd_sweep(grid)["sweep_csv"], "rb").read()
        monkeypatch.setattr(experiments, "SWEEP_CHUNK", 1)
        monkeypatch.setattr(experiments, "SWEEP_SERVE", 1)
        cells = open(experiments.cmd_sweep(grid)["sweep_csv"], "rb").read()
        assert calls == {
            "served": [6] + [1] * 6,
            "received": [min(whole, 6 - lo) for lo in range(0, 6, whole)]
            + [1] * 6}
        assert chunked == cells

    @pytest.mark.parametrize("prompts", [3, 9])
    def test_small_sweep_equals_one_cell_chunks(self, tiny_cfg, tiny_bundle,
                                                monkeypatch, prompts):
        # below SWEEP_CHUNK_MIN_PROMPTS prompts per cell, a batch's flat
        # sampler rows round unlike each cell's alone, so every cell is
        # served and received on its own and the bytes do not depend on
        # SWEEP_CHUNK or SWEEP_SERVE
        grid = replace(tiny_cfg, sweep_snrs_db=(-10.0, 10.0, 30.0),
                       sweep_trials=2, eval_prompts=prompts)
        calls = self._spy_phases(monkeypatch)
        served = open(experiments.cmd_sweep(grid)["sweep_csv"], "rb").read()
        monkeypatch.setattr(experiments, "SWEEP_CHUNK", 1)
        monkeypatch.setattr(experiments, "SWEEP_SERVE", 1)
        cells = open(experiments.cmd_sweep(grid)["sweep_csv"], "rb").read()
        assert calls == {"served": [1] * 12, "received": [1] * 12}
        assert served == cells

    def test_desk_sweep_serves_each_rate_in_one_batch(self, desk_cfg,
                                                      desk_bundle,
                                                      monkeypatch):
        # the desk grid's 25 cells of 16 prompts: one sampler batch, where
        # one per receiver chunk of SWEEP_CHUNK made 7
        calls = []
        handle = protocol.es_handle_request
        monkeypatch.setattr(
            protocol, "es_handle_request",
            lambda *a: calls.append(a[5]) or handle(*a))
        experiments.cmd_sweep(desk_cfg)
        cells = len(desk_cfg.sweep_snrs_db) * desk_cfg.sweep_trials
        assert cells <= experiments.SWEEP_SERVE
        assert calls == [cells] * len(desk_cfg.codec_rates)

    @pytest.mark.parametrize("bound", [4, 5])
    def test_grid_beyond_the_bound_is_served_in_batches(
            self, tiny_cfg, tiny_bundle, monkeypatch, bound):
        # 15 cells of 10 prompts: ceil(15 / bound) server batches, the last
        # partial; at a bound of 5 a receiver chunk of 4 ends each batch
        # early, and the bytes equal one batch of all 15
        grid = replace(tiny_cfg, sweep_snrs_db=(-10.0, 0.0, 10.0, 20.0,
                                                30.0), sweep_trials=3,
                       eval_prompts=experiments.SWEEP_CHUNK_MIN_PROMPTS)
        whole = open(experiments.cmd_sweep(grid)["sweep_csv"], "rb").read()
        calls = []
        handle = protocol.es_handle_request
        monkeypatch.setattr(
            protocol, "es_handle_request",
            lambda *a: calls.append(a[5]) or handle(*a))
        monkeypatch.setattr(experiments, "SWEEP_SERVE", bound)
        batched = open(experiments.cmd_sweep(grid)["sweep_csv"], "rb").read()
        assert len(calls) == math.ceil(15 / bound)
        assert calls == [min(bound, 15 - lo) for lo in range(0, 15, bound)]
        assert batched == whole

    def test_cell_rows_do_not_depend_on_the_grid(self, desk_cfg,
                                                 desk_bundle):
        # each cell is seeded by its rate, SNR and trial, so a grid with one
        # more trial and one more SNR writes every shared cell's rows with
        # the same bytes (less the config hash, which names the grid)
        def rows(cfg):
            with open(experiments.cmd_sweep(cfg)["sweep_csv"]) as fh:
                lines = fh.read().splitlines()[2:]
            return {tuple(line.split(",")[1:5]): line.split(",", 1)[1]
                    for line in lines}

        desk = rows(desk_cfg)
        grown = rows(replace(
            desk_cfg, sweep_snrs_db=tuple(sorted(desk_cfg.sweep_snrs_db
                                                 + (5.0,))),
            sweep_trials=desk_cfg.sweep_trials + 1))
        rates, snrs = len(desk_cfg.codec_rates), len(desk_cfg.sweep_snrs_db)
        assert len(desk) == 3 * rates * snrs * desk_cfg.sweep_trials
        assert len(grown) == 3 * rates * (snrs + 1) \
            * (desk_cfg.sweep_trials + 1)
        assert {key: grown[key] for key in desk} == desk

    def test_bundle_loaded_once_at_one_job(self, tiny_cfg, tiny_bundle,
                                           monkeypatch):
        calls = []
        load = experiments.load_bundle

        def counting(cfg):
            calls.append(cfg)
            return load(cfg)

        monkeypatch.setattr(experiments, "load_bundle", counting)
        experiments.cmd_sweep(tiny_cfg)
        assert len(calls) == 1

    def test_config_rendered_per_sweep_not_per_cell(self, tiny_cfg,
                                                    tiny_bundle,
                                                    monkeypatch):
        from megsim import corpus
        renders, samples = [], []
        render = config._section_lines
        monkeypatch.setattr(config, "_section_lines",
                            lambda *a, **kw: renders.append(1)
                            or render(*a, **kw))
        sample = corpus.sample_prompts
        monkeypatch.setattr(corpus, "sample_prompts",
                            lambda *a: samples.append(1) or sample(*a))
        counts = []
        for snrs in ((0.0,), (0.0, 10.0, 20.0)):
            renders.clear()
            samples.clear()
            experiments.cmd_sweep(replace(tiny_cfg, sweep_snrs_db=snrs))
            counts.append((len(renders), len(samples)))
        assert counts[0] == counts[1]
        assert counts[0][1] == 1

    @pytest.mark.parametrize("trials", [4, 5])
    def test_plot_medians_equal_numpy_medians(self, tmp_path, trials):
        # the plots take statistics.median, which must equal np.median
        cfg = replace(config.desk_config(), out=str(tmp_path),
                      sweep_trials=trials)
        rng = np.random.default_rng(trials)
        rows = [(mode, rate, snr, trial, *rng.standard_normal(3) * 10, 64, 0)
                for mode in ("centralized", "raw_feature", "meg")
                for rate in cfg.codec_rates for snr in cfg.sweep_snrs_db
                for trial in range(trials)]
        rows.append(("meg", cfg.codec_rates[0], cfg.sweep_snrs_db[0], trials,
                     math.inf, 0.5, 0.0, 64, 0))     # one exact delivery
        for path in experiments._sweep_plots(cfg, rows)[::2]:
            col = 4 if "psnr_db" in path else 5
            rate = float(path.rsplit("_r", 1)[1][:-4])
            with open(path, newline="") as fh:
                points = list(csv.DictReader(fh))
            assert len(points) == 3 * len(cfg.sweep_snrs_db)
            for point in points:
                want = np.median([r[col] for r in rows if r[0] ==
                                  point["series"] and r[1] == rate
                                  and r[2] == float(point["x"])])
                assert point["y"] == repr(float(want))

    def test_paper_arithmetic_symbols(self, tmp_path):
        cfg = replace(config.paper_arithmetic_config(),
                      out=str(tmp_path / "pa"))
        result = experiments.cmd_sweep(cfg)
        want = {0.1: 1638, 0.3: 4915, 0.5: 8192, 0.7: 11469, 0.9: 14746}
        rows = [r for r in result["rows"] if r[0] == "meg"]
        for rate, symbols in {(r[1], r[7]) for r in rows}:
            assert symbols == want[rate]
        assert {r[7] for r in result["rows"] if r[0] == "centralized"} \
            == {1_048_576}
        assert {r[7] for r in result["rows"] if r[0] == "raw_feature"} \
            == {16_384}
        # integer-only arithmetic, so the bytes do not depend on the BLAS
        with open(result["sweep_csv"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == (
                "74b349c91b4337831b328e860bb778ca"
                "e23f67b2a7928292611e5f324f6b0d4f")


class TestPowerCommand:
    def test_summary_and_curves(self, tiny_cfg, tiny_bundle):
        cfg = replace(tiny_cfg, power_budgets=(0.5, 1.0),
                      ppo_update_rounds=3, power_eval_traces=6)
        result = experiments.cmd_power(cfg)
        assert os.path.exists(result["summary_csv"])
        assert os.path.exists(result["traces_csv"])
        rows = result["rows"]
        assert [r[0] for r in rows] == [0.5, 1.0]
        assert all(r[4] == 6 for r in rows)
        chash = config.config_hash(cfg)
        body = open(result["summary_csv"]).read().splitlines()[2:]
        assert body and all(line.startswith(chash) for line in body)
        for path in result["curves"]:
            lines = open(path).read().splitlines()[2:]
            assert all(line.startswith(chash) for line in lines)
            episodes = [int(line.split(",")[1]) for line in lines]
            assert episodes == list(range(len(episodes)))
        for path in result["agents"]:
            assert os.path.exists(path)

    def test_every_budget_runs_on_the_same_draws(self, tiny_cfg, tiny_bundle,
                                                 monkeypatch):
        # common random numbers: one environment serves every budget, so
        # the budgets share its ground truths and payloads, and each
        # budget's training run draws the same traces and episode noise
        cfg = replace(tiny_cfg, power_budgets=(0.5, 2.0), ppo_update_rounds=1,
                      power_eval_traces=3)
        built, first = [], {}
        init, rollout = (power_rl.SeedTransmissionEnv.__init__,
                         power_rl.SeedTransmissionEnv.rollout)

        def spy_init(env, *args):
            built.append(env)
            init(env, *args)

        def spy_rollout(env, agent, rng, p_max, gains, noise_seeds):
            first.setdefault(p_max, (env, np.array(gains), list(noise_seeds)))
            return rollout(env, agent, rng, p_max, gains, noise_seeds)

        monkeypatch.setattr(power_rl.SeedTransmissionEnv, "__init__",
                            spy_init)
        monkeypatch.setattr(power_rl.SeedTransmissionEnv, "rollout",
                            spy_rollout)
        experiments.cmd_power(cfg)
        (env,) = built
        assert list(first) == [0.5, 2.0]
        (low_env, low_gains, low_seeds), (high_env, high_gains, high_seeds) \
            = first.values()
        assert low_env is high_env is env
        assert low_gains.tobytes() == high_gains.tobytes()
        assert low_seeds == high_seeds

    def test_budget_outputs_do_not_depend_on_the_other_budgets(
            self, tiny_cfg, tiny_bundle):
        outputs = []
        for budgets in ((2.0,), (0.5, 2.0)):
            cfg = replace(tiny_cfg, power_budgets=budgets,
                          ppo_update_rounds=2, power_eval_traces=3)
            result = experiments.cmd_power(cfg)
            # the files name their run's whole config, so its hash differs;
            # every other byte is the budget's own
            chash = config.config_hash(cfg).encode()
            outputs.append([row for row in result["rows"] if row[0] == 2.0]
                           + [open(os.path.join(cfg.out, name), "rb").read()
                              .replace(chash, b"<hash>")
                              for name in ("curve_p2.0.csv",
                                           "agent_p2.0.bin")])
        assert outputs[0] == outputs[1]

    def test_block_count_matches_environment(self, tiny_cfg, tiny_bundle):
        cfg = replace(tiny_cfg, power_budgets=(1.0,), ppo_update_rounds=1,
                      power_eval_traces=3)
        env = experiments.power_env(tiny_bundle, cfg)
        # the config's count covers the seeds the environment served
        assert env.num_blocks == ch.block_count(env.seed_len,
                                                cfg.block_length)
        result = experiments.cmd_power(cfg)
        assert os.path.basename(result["traces_csv"]) \
            == f"eval_traces_3x{env.num_blocks}.csv"
        # the frozen traces hold one gain per block of the environment
        with open(result["traces_csv"], newline="") as fh:
            rows = list(csv.reader(line for line in fh
                                   if not line.startswith("#")))[1:]
        assert sorted({int(block) for _, block, _ in rows}) \
            == list(range(env.num_blocks))
        assert len(rows) == 3 * env.num_blocks

    def test_traces_redrawn_for_each_config(self, tiny_cfg, tiny_bundle,
                                            tmp_path):
        import shutil
        first = replace(tiny_cfg, out=str(tmp_path), power_budgets=(1.0,),
                        ppo_update_rounds=1, power_eval_traces=3).validate()
        shutil.copytree(experiments.bundle_dir(tiny_cfg),
                        experiments.bundle_dir(first))
        path = experiments.cmd_power(first)["traces_csv"]
        # same file name, another channel: the first run's file must not
        # be scored
        second = replace(first, channel_kind="awgn").validate()
        experiments.cmd_train(second)
        assert experiments.cmd_power(second)["traces_csv"] == path
        assert _traces_match_fresh_draw(second, path)

    def test_lowest_budget_shows_largest_gain(self, desk_cfg, desk_bundle):
        result = experiments.cmd_power(desk_cfg)
        gaps = [row[1] - row[2] for row in result["rows"]]   # uniform - drl
        budgets = [row[0] for row in result["rows"]]
        assert budgets == sorted(budgets)
        assert gaps[0] == max(gaps)


def _csv_body(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh
                                   if not line.startswith("#")))


def _traces_match_fresh_draw(cfg, path):
    from megsim.util import as_rng, derive_seed
    written = {}
    for line in _csv_body(path):
        gains = written.setdefault(int(line["trace"]), [])
        assert int(line["block"]) == len(gains)
        gains.append(float(line["gain"]))
    # one trace per draw, as the command's one [n, blocks] draw must equal
    rng = as_rng(derive_seed(cfg.seed, "frozen_traces"))
    fresh = [ch.fading_gains(cfg.channel_kind, len(written[0]), rng)
             for _ in range(cfg.power_eval_traces)]
    return list(written) == list(range(len(fresh))) and all(
        np.array_equal(written[t], gains) for t, gains in enumerate(fresh))


class TestCsvContract:
    """Every float cell parses back to the value the command produced."""

    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8),
           st.lists(st.floats(width=32, allow_nan=False), max_size=4))
    @example([-0.0, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
              1.7976931348623157e308], [-0.0, 1e-45, -3.4028235e38])
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_float_cells_read_back_bit_exact(self, tmp_path, doubles,
                                             singles):
        # Python and numpy floats; a float32 cell is its exact float64 value
        cells = doubles + [np.float64(v) for v in doubles] \
            + [np.float32(v) for v in singles]
        path = tmp_path / "floats.csv"
        write_csv(path, ["x"] * len(cells), [cells])
        with open(path, newline="") as fh:
            _, row = csv.reader(fh)
        assert np.array([float(cell) for cell in row]).tobytes() \
            == np.array(cells, dtype=np.float64).tobytes()

    def test_sweep_and_eval(self, tiny_cfg, tiny_bundle):
        result = experiments.cmd_sweep(tiny_cfg)
        written = _csv_body(result["sweep_csv"])
        assert len(written) == len(result["rows"])
        for line, row in zip(written, result["rows"]):
            assert [float(line[k]) for k in ("f_c", "snr_db", "psnr_db",
                                             "fid_proxy", "mse")] \
                == [row[i] for i in (1, 2, 4, 5, 6)]
        result = experiments.cmd_eval(tiny_cfg)
        written = _csv_body(result["eval_csv"])
        assert len(written) == 3
        for line in written:
            r = result["report"][0, line["mode"]].report
            assert [float(line[k]) for k in ("psnr_db", "fid_proxy", "mse")] \
                == [r.psnr_db, r.fid_score, r.mse]

    def test_power(self, tiny_cfg, tiny_bundle, monkeypatch):
        from megsim import power_rl
        cfg = replace(tiny_cfg, power_budgets=(0.5, 1.0),
                      ppo_update_rounds=2, power_eval_traces=4)
        histories = []
        train = power_rl.train_agent

        def recording(*args, **kwargs):
            agent, history = train(*args, **kwargs)
            histories.append(history)
            return agent, history

        monkeypatch.setattr(power_rl, "train_agent", recording)
        result = experiments.cmd_power(cfg)
        for path, history in zip(result["curves"], histories, strict=True):
            written = [[float(line[k]) for k in (
                "episode", "mean_reward", "surrogate", "value_loss",
                "entropy")] for line in _csv_body(path)]
            assert np.array_equal(written, history, equal_nan=True)
        written = [[float(line[k]) for k in (
            "p_max", "uniform_fid_mean", "drl_fid_mean", "drl_fid_std", "n")]
            for line in _csv_body(result["summary_csv"])]
        assert written == [list(row) for row in result["rows"]]
        assert _traces_match_fresh_draw(cfg, result["traces_csv"])


class TestTableAndEval:
    def test_table_paper_values(self, tmp_path):
        cfg = replace(config.paper_arithmetic_config(),
                      out=str(tmp_path / "t"))
        rep = experiments.cmd_table(cfg)
        symbols = dict(rep.symbol_rows)
        assert symbols["centralized"] == 1_048_576
        assert symbols["raw_feature"] == 16_384
        assert symbols["meg f_c=0.7"] == 11_469
        assert rep.total_params == 563_430_184
        counts = [c for _, _, c in rep.param_rows if c]
        assert counts == [134_225_920, 134_234_112, 147_465_000,
                          147_472_384, 32_768]

    def test_desk_table_counts_the_built_codec(self):
        cfg = config.desk_config()
        rep = experiments.cmd_table(cfg)
        pair = seedcodec.CodecPair(cfg, 0.5, rng=0)
        assert [count or 0 for _, _, count in rep.param_rows] \
            == [layer.param_count for layer in pair.net.layers]
        assert rep.total_params == pair.net.param_count == 41_632

    def test_counts_of_every_built_network(self, desk_bundle, desk_cfg):
        # the count that network_extra checks a file's size against
        agent = power_rl.PpoAgent(desk_cfg.block_length + 2,
                                  desk_cfg.ppo_hidden, rng=0)
        ae = desk_bundle.autoencoder
        nets = [ae.encoder, ae.decoder, desk_bundle.denoiser.net,
                desk_bundle.extractor.net, agent.actor, agent.critic,
                *(codec.net for codec in desk_bundle.codecs.values())]
        for net in nets:
            assert nn.parameter_count(net.descriptors()) == net.param_count

    def test_eval_command(self, tiny_cfg, tiny_bundle):
        result = experiments.cmd_eval(tiny_cfg)
        assert os.path.exists(result["eval_csv"])
        assert set(result["report"].results) == {
            (0, "centralized"), (0, "raw_feature"), (0, "meg")}


class TestCli:
    def test_table_command_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEGSIM_OUT", str(tmp_path))
        assert cli_main(["--preset", "paper-arithmetic", "table"]) == 0
        out = capsys.readouterr().out
        assert "563,430,184" in out and "1,048,576" in out

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MEGSIM_PRESET", "desk")
        monkeypatch.setenv("MEGSIM_OUT", str(tmp_path))
        cli_main(["--preset", "paper-arithmetic", "table"])
        assert "paper-arithmetic" in capsys.readouterr().out

    @pytest.mark.parametrize("text,words", [
        ("[sweep]\nsnrs_db =\n", "snrs_db needs at least one value"),
        ("[ppo]\nupdate_rounds = 1.5\n", "update_rounds = '1.5'"),
        ("[nosuch]\nkey = 1\n", "unknown config section [nosuch]"),
        (None, "No such file")])
    def test_bad_config_is_one_error_line(self, tmp_path, capsys,
                                          monkeypatch, text, words):
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        path = tmp_path / "bad.cfg"
        if text is not None:
            path.write_text(text)
        assert cli_main(["--config", str(path), "table"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("megsim: error: ")
        assert captured.err.count("\n") == 1 and words in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("text,command,words", [
        ("[corpus]\nsize = 0\n", "train", "[corpus] size must be >= 1"),
        ("[power]\nprompts = 1\n", "power", "[power] prompts must be >= 2")])
    def test_count_below_its_minimum_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, text, command, words):
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        path = tmp_path / "zero.cfg"
        path.write_text(text)
        argv = ["--config", str(path), "--out", str(tmp_path), command]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"megsim: error: {words}\n"
        assert captured.out == "" and os.listdir(tmp_path) == ["zero.cfg"]

    def test_bad_environment_value_names_its_variable(self, tmp_path, capsys,
                                                      monkeypatch):
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        monkeypatch.setenv("MEGSIM_SEED", "abc")
        assert cli_main(["--out", str(tmp_path), "table"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("megsim: error: MEGSIM_SEED = 'abc': ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("name", ["MEGSIM_SEEED", "MEGSIM_PRESETT",
                                      "MEGSIM_EVAL_PROMPT"])
    def test_unknown_environment_variable_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, name):
        # read as a [run] key or the config path, or refused: a misspelled
        # variable never runs with the default it meant to replace
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        monkeypatch.setenv(name, "3")
        assert cli_main(["--out", str(tmp_path), "table"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"megsim: error: unknown environment variable {name}; megsim "
            f"reads MEGSIM_CONFIG and the [run] keys")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("text,command,words", [
        ("[channel]\nkind = foo\n", "train", "[channel] kind 'foo'"),
        ("[ppo]\nclip = 0\n", "power", "[ppo] clip must lie in (0, 1)"),
        ("[ppo]\ngamma = 0\n", "power", "[ppo] gamma must lie in (0, 1]"),
        ("[power]\nbudgets = 0\n", "power", "[power] budgets must be positive"),
        ("[power]\nbudgets = -1\n", "power",
         "[power] budgets must be positive"),
        ("[power]\nsnr_db = nan\n", "power", "[power] snr_db must be finite"),
        ("[sweep]\nsnrs_db = nan\n", "sweep",
         "[sweep] snrs_db must be finite"),
        # a file configparser cannot read is named in its one line
        ("seed = 3\n", "table",
         "File contains no section headers. file: '{path}', line: 1"),
        ("[run]\nseed = 3\nseed = 4\n", "table",
         "While reading from '{path}' [line 3]: option 'seed' in section "
         "'run' already exists"),
        ("[run]\nseed\n", "table",
         "Source contains parsing errors: '{path}' [line 2]: 'seed\\n'"),
        ("[eval]\nprompt = large  rings\n", "eval",
         "[eval] prompt must be single-spaced words")])
    def test_out_of_range_setting_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, text, command, words):
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        argv = ["--config", str(path), "--out", str(tmp_path), command]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        words = words.format(path=path)
        assert captured.err.startswith(f"megsim: error: {words}")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert os.listdir(tmp_path) == ["bad.cfg"]

    @pytest.mark.parametrize("command", ["train", "power", "eval"])
    def test_paper_preset_training_is_one_error_line(
            self, tmp_path, capsys, monkeypatch, command):
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        argv = ["--preset", "paper-arithmetic", "--out", str(tmp_path),
                command]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("megsim: error: the paper-arithmetic preset")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_unusable_bundle_is_one_error_line(self, tiny_cfg, tmp_path,
                                               capsys, monkeypatch):
        import shutil
        for key in [k for k in os.environ if k.startswith("MEGSIM_")]:
            monkeypatch.delenv(key)
        assert cli_main(["--out", str(tmp_path / "empty"), "eval"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("megsim: error: ") and err.count("\n") == 1
        assert "ae_decoder.bin missing" in err and "megsim train" in err
        assert "Traceback" not in err
        # a bit-flipped copy of the tiny bundle, run through its config file
        experiments.cmd_train(tiny_cfg)
        cfg = replace(tiny_cfg, out=str(tmp_path / "copy"))
        shutil.copytree(experiments.bundle_dir(tiny_cfg),
                        experiments.bundle_dir(cfg))
        path = os.path.join(experiments.bundle_dir(cfg), "ae_decoder.bin")
        data = bytearray(open(path, "rb").read())
        data[-1] ^= 1
        open(path, "wb").write(bytes(data))
        (tmp_path / "tiny.cfg").write_text(config.render_config(cfg))
        argv = ["--config", str(tmp_path / "tiny.cfg"), "--out", cfg.out]
        for command in ("eval", "sweep", "power"):
            assert cli_main(argv + [command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("megsim: error: ")
            assert err.count("\n") == 1 and "Traceback" not in err
            assert "ae_decoder.bin corrupt" in err and "megsim train" in err
