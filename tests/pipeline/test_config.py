"""Tests for pipeline configuration validation."""

import pytest

from repro.errors import ConfigError
from repro.pipeline.config import ParallelConfig, PipelineConfig


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.k == 10  # the paper's default mer-size
        assert cfg.accumulator == "NORM"
        assert cfg.alignment_mode == "semiglobal"

    def test_accumulator_names(self):
        for name in ("NORM", "CHARDISC", "CENTDISC", "chardisc"):
            PipelineConfig(accumulator=name)
        with pytest.raises(ConfigError):
            PipelineConfig(accumulator="DENSE")

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(k=0)
        with pytest.raises(ConfigError):
            PipelineConfig(pad=-1)
        with pytest.raises(ConfigError):
            PipelineConfig(batch_size=0)
        with pytest.raises(ConfigError):
            PipelineConfig(edge_policy="wat")
        with pytest.raises(ConfigError):
            PipelineConfig(min_ratio=1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(alignment_mode="local")

    def test_band_defaults_off(self):
        cfg = PipelineConfig()
        assert cfg.band_mode == "off"
        assert not cfg.banding
        assert cfg.band_cell_fraction(62) == 1.0

    def test_band_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(band_mode="diagonal")
        with pytest.raises(ConfigError):
            PipelineConfig(band_w=0)
        with pytest.raises(ConfigError):
            PipelineConfig(band_tolerance=1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(band_tolerance=-0.1)

    def test_banding_requires_marginal_posteriors(self):
        assert PipelineConfig(band_mode="adaptive").banding
        assert not PipelineConfig(
            band_mode="adaptive", posterior_mode="viterbi"
        ).banding

    def test_band_cell_fraction(self):
        cfg = PipelineConfig(band_mode="fixed", band_w=10)
        # band of 21 diagonals over a (read_len + 2*pad)-wide window
        assert cfg.band_cell_fraction(62) == pytest.approx(21 / 78)
        # a band wider than the window means no savings, never > 1
        assert PipelineConfig(
            band_mode="fixed", band_w=1000
        ).band_cell_fraction(62) == 1.0

    def test_subconfigs_carried(self):
        from repro.calling.caller import CallerConfig
        from repro.index.seeding import SeederConfig

        cfg = PipelineConfig(
            seeder=SeederConfig(min_support=3),
            caller=CallerConfig(alpha=0.01),
        )
        assert cfg.seeder.min_support == 3
        assert cfg.caller.alpha == 0.01


class TestParallelConfig:
    def test_defaults(self):
        par = PipelineConfig().parallel
        assert par.workers == 1
        assert par.start_method == "spawn"
        assert par.chunk_timeout == 120.0
        assert par.max_retries == 2
        assert par.chunks_per_worker == 4
        assert par.fault_spec == ""
        # Chunk granularity is autotuned by default.
        assert par.autotune_chunks

    def test_validation(self):
        with pytest.raises(ConfigError):
            ParallelConfig(workers=0)
        with pytest.raises(ConfigError):
            ParallelConfig(start_method="thread")
        with pytest.raises(ConfigError):
            ParallelConfig(chunk_timeout=0.0)
        with pytest.raises(ConfigError):
            ParallelConfig(max_retries=-1)
        with pytest.raises(ConfigError):
            ParallelConfig(backoff_base=-0.1)
        with pytest.raises(ConfigError):
            ParallelConfig(chunks_per_worker=0)
        # A malformed fault spec fails at config time, not mid-run.
        with pytest.raises(ConfigError):
            ParallelConfig(fault_spec="segfault:chunk=0")

    def test_nested_carried(self):
        cfg = PipelineConfig(
            parallel=ParallelConfig(workers=4, start_method="fork")
        )
        assert cfg.parallel.workers == 4
        assert cfg.parallel.start_method == "fork"


class TestSeederKnobs:
    def test_seed_len_must_exceed_k(self):
        from repro.index.seeding import SeederConfig

        with pytest.raises(ConfigError, match="seed_len"):
            PipelineConfig(k=10, seeder=SeederConfig(seed_len=10))
        with pytest.raises(ConfigError, match="seed_len"):
            PipelineConfig(k=12, seeder=SeederConfig(seed_len=11))

    def test_valid_seed_len_accepted(self):
        from repro.index.seeding import SeederConfig

        cfg = PipelineConfig(k=10, seeder=SeederConfig(seed_len=20))
        assert cfg.seeder.seed_len == 20

    def test_filter_knobs_validated_at_source(self):
        from repro.errors import IndexError_
        from repro.index.seeding import SeederConfig

        with pytest.raises(IndexError_):
            SeederConfig(filter_threshold=1.5)
        with pytest.raises(IndexError_):
            SeederConfig(qgram_q=0)
