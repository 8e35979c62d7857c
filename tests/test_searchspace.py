import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spotkit.analysis import rows_to_csv
from spotkit.searchspace import (
    ParamSpec, SearchSpace, gen_design_table,
    parse_hyper_dict, serialize_hyper_dict,
)


def test_parse_reference_model(reference_space):
    assert reference_space.names == [
        "l1", "l2", "lr_mult", "batch_size", "epochs", "k_folds",
        "patience", "optimizer", "sgd_momentum",
    ]
    assert reference_space.dim == 9
    opt = reference_space.spec("optimizer")
    assert opt.kind == "factor"
    assert (opt.lower, opt.upper) == (0, 12)
    assert len(opt.levels) == 13


def test_parse_missing_model_key(reference_hyper_dict_text):
    with pytest.raises(ValueError, match="no entry for model"):
        parse_hyper_dict(reference_hyper_dict_text, "NoSuchModel")


def test_parse_rejects_unknown_transform():
    text = json.dumps({"m": {"p": {"type": "int", "default": 1,
                                   "transform": "transform_log", "lower": 0, "upper": 3}}})
    with pytest.raises(ValueError, match="unknown transform"):
        parse_hyper_dict(text, "m")


def test_parse_rejects_empty_factor_levels():
    text = json.dumps({"m": {"p": {"type": "factor", "default": "a", "levels": [],
                                   "transform": "None", "lower": 0, "upper": 0}}})
    with pytest.raises(ValueError, match="empty levels"):
        parse_hyper_dict(text, "m")


def test_parse_rejects_inverted_bounds():
    text = json.dumps({"m": {"p": {"type": "float", "default": 1.0,
                                   "transform": "None", "lower": 2.0, "upper": 1.0}}})
    with pytest.raises(ValueError, match="lower"):
        parse_hyper_dict(text, "m")


def test_parse_rejects_malformed_entry():
    text = json.dumps({"m": {"p": {"type": "float", "lower": 0.0, "upper": 1.0}}})
    with pytest.raises(ValueError, match="missing field"):
        parse_hyper_dict(text, "m")


def test_equal_bounds_deactivate():
    text = json.dumps({"m": {"p": {"type": "float", "default": 1.0,
                                   "transform": "None", "lower": 1.0, "upper": 1.0}}})
    space = parse_hyper_dict(text, "m")
    assert space.n_active == 0
    assert space.spec("p").is_fixed


class TestModifyBounds:
    def test_fixes_parameter(self, reference_space):
        space = reference_space.modify_bounds("k_folds", [0, 0])
        spec = space.spec("k_folds")
        assert spec.is_fixed
        assert (spec.lower, spec.upper) == (0, 0)
        assert space.default_config()["k_folds"] == 0

    def test_narrows_active_range(self, reference_space):
        space = reference_space.modify_bounds("batch_size", [1, 5])
        spec = space.spec("batch_size")
        assert not spec.is_fixed
        assert (spec.lower, spec.upper) == (1, 5)

    def test_fixes_float(self, reference_space):
        space = reference_space.modify_bounds("lr_mult", [1.0, 1.0])
        assert space.spec("lr_mult").is_fixed
        assert space.default_config()["lr_mult"] == 1.0

    def test_keeps_declared_default_but_clamps_materialized(self, reference_space):
        space = reference_space.modify_bounds("patience", [3, 3])
        assert space.spec("patience").default == 5
        assert space.default_config()["patience"] == 3

    def test_unknown_name(self, reference_space):
        with pytest.raises(ValueError, match="unknown parameter"):
            reference_space.modify_bounds("nope", [0, 1])

    def test_factor_target_rejected(self, reference_space):
        with pytest.raises(ValueError, match="factor"):
            reference_space.modify_bounds("optimizer", [0, 1])

    def test_inverted_bounds_rejected(self, reference_space):
        with pytest.raises(ValueError, match="inverted"):
            reference_space.modify_bounds("l1", [5, 2])


class TestModifyLevels:
    def test_two_levels(self, reference_space):
        space = reference_space.modify_levels("optimizer", ["SGD", "Adam"])
        spec = space.spec("optimizer")
        assert spec.levels == ("SGD", "Adam")
        assert (spec.lower, spec.upper) == (0, 1)
        assert not spec.is_fixed

    def test_single_level_fixes(self, reference_space):
        space = reference_space.modify_levels("optimizer", ["SGD"])
        assert space.spec("optimizer").is_fixed
        assert space.default_config()["optimizer"] == "SGD"

    def test_ten_levels(self, screening_space):
        spec = screening_space.spec("optimizer")
        assert spec.upper == 9
        assert len(spec.levels) == 10

    def test_default_reset_when_dropped(self, reference_space):
        space = reference_space.modify_levels("optimizer", ["Adam", "AdamW"])
        assert space.spec("optimizer").default == "Adam"

    def test_unknown_level_rejected(self, reference_space):
        with pytest.raises(ValueError, match="unknown levels"):
            reference_space.modify_levels("optimizer", ["SGD", "Lion"])

    def test_non_factor_rejected(self, reference_space):
        with pytest.raises(ValueError, match="not a factor"):
            reference_space.modify_levels("l1", ["a"])


class TestTransforms:
    def test_power_of_two_widths(self, reference_space):
        assert reference_space.spec("l1").decode(5) == 32
        assert reference_space.spec("batch_size").decode(4) == 16

    def test_float_identity(self, reference_space):
        assert reference_space.spec("sgd_momentum").decode(0.3) == 0.3

    def test_rounds_int_before_check(self, reference_space):
        assert reference_space.spec("l1").decode(6.6) == 2 ** 7

    def test_out_of_bounds_rejected(self, reference_space):
        with pytest.raises(ValueError, match="outside"):
            reference_space.spec("l1").decode(11.0)

    def test_factor_decode(self, reference_space):
        assert reference_space.spec("optimizer").decode(0) == "Adadelta"

    def test_bijection_onto_powers(self, reference_space):
        spec = reference_space.spec("l1")
        values = [spec.decode(k) for k in range(2, 10)]
        assert values == [4, 8, 16, 32, 64, 128, 256, 512]


class TestInternalVectors:
    def test_tuned_vector_decodes(self, screening_space):
        vec = [7, 3, 1.0, 4, 4, 0, 3, 3, 0.9]
        config = screening_space.from_internal(vec)
        assert config["l1"] == 128
        assert config["l2"] == 8
        assert config["batch_size"] == 16
        assert config["epochs"] == 16
        assert config["optimizer"] == screening_space.spec("optimizer").levels[3]

    def test_round_trip_of_defaults(self, reference_space):
        config = reference_space.default_config()
        again = reference_space.from_internal(reference_space.to_internal(config))
        assert again == config

    def test_factor_index_zero(self, reference_space):
        vec = reference_space.default_internal()
        vec[reference_space.names.index("optimizer")] = 0
        assert reference_space.from_internal(vec)["optimizer"] == "Adadelta"

    def test_vector_length_checked(self, reference_space):
        with pytest.raises(ValueError, match="length"):
            reference_space.from_internal([0.0, 1.0])

    def test_factor_index_out_of_range(self, reference_space):
        vec = reference_space.default_internal()
        vec[reference_space.names.index("optimizer")] = 55
        with pytest.raises(ValueError, match="outside"):
            reference_space.from_internal(vec)

    def test_missing_parameter_rejected(self, reference_space):
        config = reference_space.default_config()
        del config["l1"]
        with pytest.raises(ValueError, match="misses"):
            reference_space.to_internal(config)

    def test_fixed_dims_pinned(self, screening_space):
        config = screening_space.default_config()
        config["lr_mult"] = 9.0   # contradicts the fixed value; gets pinned
        vec = screening_space.to_internal(config)
        assert vec[screening_space.names.index("lr_mult")] == 1.0


@given(st.integers(0, 2 ** 32 - 1))
def test_random_vectors_decode_in_bounds(seed):
    from tests.conftest import REFERENCE_HYPER_DICT

    space = parse_hyper_dict(json.dumps(REFERENCE_HYPER_DICT), "Net_CIFAR10")
    rng = np.random.default_rng(seed)
    lo, hi = space.internal_bounds()
    vec = rng.uniform(lo, hi)
    config = space.from_internal(vec)
    for p in space.params:
        value = config[p.name]
        if p.kind == "factor":
            assert value in p.levels
        elif p.transform == "power_2_int":
            assert 2 ** p.lower <= value <= 2 ** p.upper
        else:
            assert p.lower <= value <= p.upper
    # round trip back onto the lattice
    again = space.from_internal(space.to_internal(config))
    assert again == config


def test_serialize_parse_fixpoint(reference_space):
    text1 = serialize_hyper_dict(reference_space, "Net_CIFAR10")
    space2 = parse_hyper_dict(text1, "Net_CIFAR10")
    text2 = serialize_hyper_dict(space2, "Net_CIFAR10")
    assert text1 == text2
    assert json.loads(text1) == json.loads(text2)


def test_serialize_fields_alphabetical(reference_space):
    doc = json.loads(serialize_hyper_dict(reference_space, "Net_CIFAR10"))
    for entry in doc["Net_CIFAR10"].values():
        keys = list(entry.keys())
        assert keys == sorted(keys)


class TestDesignTable:
    def test_reference_rows(self, reference_space):
        rows = gen_design_table(reference_space)
        first = rows[0]
        assert (first["name"], first["type"], first["default"]) == ("l1", "int", 5)
        assert (first["lower"], first["upper"]) == (2, 9)
        assert first["transform"] == "transform_power_2_int"

    def test_empty_space(self):
        assert gen_design_table(SearchSpace(())) == []

    def test_with_results_adds_columns(self, screening_space):
        from spotkit.tuner import RunState

        state = RunState()
        vec = screening_space.default_internal()
        state.append(vec, 1.0, 0.5, "initial", 0.0)
        report = [{"name": p.name, "importance": 100.0 if p.name == "l1" else 0.0,
                   "stars": "***" if p.name == "l1" else ""}
                  for p in screening_space.params]
        rows = gen_design_table(screening_space, state, report)
        assert list(rows[0].keys()) == [
            "name", "type", "default", "lower", "upper", "tuned",
            "transform", "importance", "stars",
        ]
        assert rows[0]["importance"] == 100.0
        assert rows[0]["stars"] == "***"
        csv_text = rows_to_csv(rows)
        assert csv_text.splitlines()[0].startswith("name,type,default")


def test_boolean_is_int_with_unit_bounds():
    text = json.dumps({"m": {"flag": {"type": "boolean", "default": 1,
                                      "transform": "None", "lower": 0, "upper": 1}}})
    space = parse_hyper_dict(text, "m")
    assert space.from_internal([0.4])["flag"] == 0
    assert space.from_internal([0.6])["flag"] == 1
    with pytest.raises(ValueError, match="boolean"):
        ParamSpec(name="b", kind="boolean", default=1, lower=0.0, upper=2.0)
