from dataclasses import fields

import pytest

from blockprune.config import _SCHEMA, parse_config, resolve_settings
from blockprune.errors import ConfigError
from blockprune.model import ArchConfig
from blockprune.trainer import TrainConfig


def write(tmp_path, text, name="c.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParse:
    def test_sections_and_values(self, tmp_path):
        path = write(tmp_path, """
# comment
[train]
seed = 9
learning_rate = 0.002

[prune]
layers = Wq, ffn_in
""")
        raw = parse_config(path)
        assert raw.sections["train"]["seed"][0] == "9"
        assert raw.sections["prune"]["layers"][0] == "Wq, ffn_in"

    def test_unknown_section_has_line_number(self, tmp_path):
        path = write(tmp_path, "[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:1.*nonsense"):
            parse_config(path)

    def test_unknown_key_has_line_number(self, tmp_path):
        path = write(tmp_path, "[train]\nwhatever = 1\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2.*whatever"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write(tmp_path, "[train]\nseed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3.*duplicate"):
            parse_config(path)

    def test_key_outside_section_rejected(self, tmp_path):
        path = write(tmp_path, "seed = 1\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:1"):
            parse_config(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = write(tmp_path, "[train]\nthis is not a key value pair\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:2"):
            parse_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/no/such/file.cfg")


class TestResolve:
    def test_defaults_without_a_file(self):
        settings, sources = resolve_settings(None, {})
        cfg = settings.train
        assert cfg.seed == 42
        assert cfg.batch_size == 32
        assert sources["train.seed"] == "default"
        assert len(cfg.prune_spec.entries) == 6

    def test_flag_beats_config_beats_default(self, tmp_path):
        raw = parse_config(write(tmp_path, "[train]\nseed = 9\n"))
        settings, sources = resolve_settings(raw, {"train.seed": 11})
        assert settings.train.seed == 11
        assert sources["train.seed"] == "flag"
        settings, sources = resolve_settings(raw, {})
        assert settings.train.seed == 9
        assert sources["train.seed"] == "config"

    @pytest.mark.parametrize("text, message", [
        ("[train]\nbatch_size = 0\n", "batch_size must be positive"),
        ("[dataset]\ntrain_samples = 0\n", "sample counts must be positive"),
    ], ids=["batch_size", "train_samples"])
    def test_zero_batch_or_sample_count_rejected(self, tmp_path, text, message):
        # the default milestones divide by these, so they are checked first
        raw = parse_config(write(tmp_path, text))
        with pytest.raises(ConfigError, match=rf"c\.cfg: {message}"):
            resolve_settings(raw, {})

    def test_bad_value_type_has_line_number(self, tmp_path):
        raw_text = "[train]\nseed = banana\n"
        with pytest.raises(ConfigError, match=r"c\.cfg:2"):
            resolve_settings(parse_config(write(tmp_path, raw_text)), {})

    def test_milestone_every_expands(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[train]
t1 = 10
milestone_every = 3
"""))
        settings, _ = resolve_settings(raw, {})
        assert settings.train.milestones == (3, 6, 9)

    def test_explicit_milestones_win(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[train]
t1 = 10
milestones = 2, 5
"""))
        settings, _ = resolve_settings(raw, {})
        assert settings.train.milestones == (2, 5)

    def test_both_milestone_forms_rejected(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[train]
t1 = 10
milestones = 2, 5
milestone_every = 3
"""))
        with pytest.raises(ConfigError, match="milestone"):
            resolve_settings(raw, {})

    def test_threshold_mode_requires_threshold(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[prune]
mode = threshold
"""))
        with pytest.raises(ConfigError, match="threshold"):
            resolve_settings(raw, {})

    def test_threshold_mode_resolves(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[prune]
mode = threshold
threshold = 0.02
layers = Wq
"""))
        settings, _ = resolve_settings(raw, {})
        entry = settings.train.prune_spec.entries[0]
        assert entry.mode == "threshold"
        assert entry.value == 0.02

    def test_per_layer_prune_section_overrides_base(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[prune]
layers = Wq, ffn_in
num_blocks = 8

[prune.ffn_in]
num_blocks = 4
sparsity = 0.25
"""))
        settings, _ = resolve_settings(raw, {})
        by_name = {e.layer_name: e for e in settings.train.prune_spec.entries}
        assert by_name["Wq"].num_blocks == 8
        assert by_name["ffn_in"].num_blocks == 4
        assert by_name["ffn_in"].value == 0.25

    def test_nonprunable_layer_rejected(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[prune]
layers = embedding
"""))
        with pytest.raises(ConfigError, match="prunable"):
            resolve_settings(raw, {})

    def test_sweep_sections(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[sweep.widths]
vary = num_blocks
values = 2, 4, 8
"""))
        settings, _ = resolve_settings(raw, {})
        spec = settings.sweeps["widths"]
        assert spec.vary == "num_blocks"
        assert spec.values == (2, 4, 8)

    def test_sweep_needs_vary_and_values(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[sweep.broken]
vary = seed
"""))
        with pytest.raises(ConfigError, match="values"):
            resolve_settings(raw, {})

    def test_model_section_shapes_the_arch(self, tmp_path):
        raw = parse_config(write(tmp_path, """
[model]
vocab = 10
dim = 24
ffn = 48
classes = 10
seq_len = 12
"""))
        settings, _ = resolve_settings(raw, {})
        arch = settings.train.arch
        assert (arch.vocab, arch.dim, arch.ffn) == (10, 24, 48)
        assert (arch.classes, arch.seq_len) == (10, 12)


def test_schema_keys_are_the_dataclass_fields():
    # the resolver builds ArchConfig and TrainConfig from these keys, so
    # a field without its key, or a key without its field, fails here
    assert {f.name for f in fields(ArchConfig)} <= set(_SCHEMA["model"])
    train_fields = {f.name for f in fields(TrainConfig)}
    for section in ("dataset", "train"):
        for key in _SCHEMA[section]:
            if key not in ("milestones", "milestone_every"):
                assert key in train_fields, f"[{section}] {key}"
