import os
from dataclasses import replace

import pytest

from megsim import config, experiments
from megsim.cli import main as cli_main


class TestConfig:
    def test_canonical_hash_stable(self):
        a = config.desk_config()
        b = config.desk_config()
        assert config.config_hash(a) == config.config_hash(b)
        assert config.config_hash(a) != config.config_hash(
            replace(a, seed=1))

    def test_file_round_trip_and_key_order(self, tmp_path):
        cfg = replace(config.desk_config(), seed=42, codec_rates=(0.3, 0.5))
        path = tmp_path / "run.cfg"
        config.write_config(cfg, path)
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

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[codec]\nwat = 1\n")
        with pytest.raises(ValueError, match="wat"):
            config.load_config(str(path))
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(ValueError, match="nonsense"):
            config.load_config(str(path))

    def test_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("MEGSIM_SEED", "99")
        monkeypatch.setenv("MEGSIM_OUT", str(tmp_path / "envout"))
        cfg = config.load_config()
        assert cfg.seed == 99 and cfg.out.endswith("envout")
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

    def test_deleting_codec_retrains_only_codec(self, tiny_cfg):
        experiments.cmd_train(tiny_cfg)
        out = experiments.bundle_dir(tiny_cfg)
        os.remove(os.path.join(out, "codec_r0.5.bin"))
        result = experiments.cmd_train(tiny_cfg)
        assert result.actions["autoencoder"] == "cached"
        assert result.actions["denoiser"] == "cached"
        assert result.actions["codec[0.5]"] == "trained"

    def test_adding_a_rate_trains_only_the_new_codec(self, tiny_cfg,
                                                     tiny_bundle):
        grown = replace(tiny_cfg, codec_rates=(0.5, 0.3)).validate()
        actions = experiments.cmd_train(grown).actions
        assert actions == {"autoencoder": "cached", "denoiser": "cached",
                           "codec[0.5]": "cached", "codec[0.3]": "trained"}

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

    def test_truncated_file_is_a_miss_and_retrained(self, tiny_cfg,
                                                    tmp_path):
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        path = os.path.join(experiments.bundle_dir(cfg), "ae_decoder.bin")
        size = os.path.getsize(path)
        for cut in (size - 5, 6):     # inside the weights, inside the header
            with open(path, "r+b") as fh:
                fh.truncate(cut)
            assert not experiments._cache_ok(path, "any")
        result = experiments.cmd_train(cfg)
        assert result.actions["autoencoder"] == "trained"
        assert result.actions["denoiser"] == "cached"
        assert os.path.getsize(path) == size

    def test_unrelated_load_error_propagates(self, tiny_cfg, tmp_path,
                                             monkeypatch):
        cfg = self._copied_bundle(tiny_cfg, tmp_path)

        def broken(path):
            raise RuntimeError("not a file-format problem")

        monkeypatch.setattr(experiments.nn, "load_network", broken)
        with pytest.raises(RuntimeError, match="file-format"):
            experiments.cmd_train(cfg)

    def test_flipped_weight_bit_is_a_miss_and_retrained(self, tiny_cfg,
                                                        tmp_path):
        import json

        from megsim.util import sha256_file
        cfg = self._copied_bundle(tiny_cfg, tmp_path)
        out = experiments.bundle_dir(cfg)
        path = os.path.join(out, "ae_decoder.bin")
        with open(os.path.join(out, "manifest.json")) as fh:
            digests = json.load(fh)["files"]
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0x01                  # one bit of the last weight
        open(path, "wb").write(bytes(data))
        ae_hash = config.config_hash(cfg, experiments._AE_SECTIONS)
        assert experiments._cache_ok(path, ae_hash)   # readable, same config
        assert not experiments._cache_ok(path, ae_hash, digests)
        result = experiments.cmd_train(cfg)
        assert result.actions["autoencoder"] == "trained"
        assert result.actions["denoiser"] == "cached"
        assert sha256_file(path) == digests["ae_decoder.bin"]

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

    def test_parallel_jobs_byte_identical(self, tiny_cfg, tiny_bundle):
        sequential = open(experiments.cmd_sweep(tiny_cfg)["sweep_csv"]).read()
        parallel_cfg = replace(tiny_cfg, jobs=2)
        parallel = open(
            experiments.cmd_sweep(parallel_cfg)["sweep_csv"]).read()
        assert parallel == sequential

    def test_bundle_loaded_once_at_one_job(self, tiny_cfg, tiny_bundle,
                                           monkeypatch):
        calls = []
        load = experiments.load_bundle

        def counting(cfg):
            calls.append(cfg)
            return load(cfg)

        monkeypatch.setattr(experiments, "load_bundle", counting)
        experiments._WORKER_CACHE.clear()
        experiments.cmd_sweep(tiny_cfg)
        assert len(calls) == 1

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

    def test_block_count_matches_environment(self, tiny_cfg, tiny_bundle):
        from megsim import corpus, power_rl
        from megsim.util import derive_seed
        cfg = replace(tiny_cfg, power_budgets=(1.0,), ppo_update_rounds=1,
                      power_eval_traces=3)
        prompts = corpus.sample_prompts(cfg.power_prompts,
                                        derive_seed(cfg.seed, 21))
        env = power_rl.SeedTransmissionEnv(
            tiny_bundle, prompts, cfg.power_rate, cfg.power_snr_db,
            p_max=1.0, channel_kind=cfg.channel_kind,
            block_length=cfg.block_length, seed=derive_seed(cfg.seed, 22))
        result = experiments.cmd_power(cfg)
        assert os.path.basename(result["traces_csv"]) \
            == f"eval_traces_3x{env.num_blocks}.csv"

    def test_lowest_budget_shows_largest_gain(self, desk_cfg, desk_bundle):
        result = experiments.cmd_power(desk_cfg)
        gaps = [row[1] - row[2] for row in result["rows"]]   # uniform - drl
        budgets = [row[0] for row in result["rows"]]
        assert budgets == sorted(budgets)
        assert gaps[0] == max(gaps)


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

    def test_eval_command(self, tiny_cfg, tiny_bundle):
        result = experiments.cmd_eval(tiny_cfg)
        assert os.path.exists(result["eval_csv"])
        assert set(result["report"].results) == {"centralized", "raw_feature",
                                                 "meg"}


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
