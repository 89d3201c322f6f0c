import numpy as np
import pytest

from esln import emit_config, parse_config
from esln.errors import ValidationError

from conftest import small_doc


def test_minimal_document_parses():
    cfg = parse_config(small_doc())
    assert cfg.system.dim == 2
    assert cfg.bath.n_sites == 1
    assert cfg.grids.n_t == 21
    assert cfg.normalize == "ensemble"


def test_matrix_entry_forms():
    doc = small_doc()
    doc["system"]["h0"] = [[0, [0.5, 0.0]], [[0.5, -0.0], 0]]
    cfg = parse_config(doc)
    assert cfg.system.h0[0, 1] == 0.5 + 0.0j


def test_complex_entries_roundtrip():
    doc = small_doc()
    doc["system"]["h0"] = [[0.0, [0.0, -0.25]], [[0.0, 0.25], 1.0]]
    cfg = parse_config(doc)
    assert cfg.system.h0[0, 1] == -0.25j
    doc2 = emit_config(cfg)
    cfg2 = parse_config(doc2)
    assert np.array_equal(cfg.system.h0, cfg2.system.h0)


def test_asymmetric_lambda_names_field():
    doc = small_doc()
    doc["bath"] = {"masses": [1.0, 1.0], "lambda": [[1.0, 0.2], [0.3, 1.0]]}
    doc["system"]["couplings"] = [[[0.1, 0], [0, -0.1]], [[0.1, 0], [0, -0.1]]]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "bath.lambda" in str(err.value)


@pytest.mark.parametrize("mass", [0.0, -1.0])
def test_non_positive_mass_names_field(mass):
    doc = small_doc()
    doc["bath"]["masses"] = [mass]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert err.value.path == "bath.masses"
    assert "must be positive" in str(err.value)


def test_single_point_grid_rejected():
    doc = small_doc()
    doc["grids"]["n_t"] = 1
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "grids.n_t" in str(err.value)


def test_unknown_keys_rejected():
    doc = small_doc()
    doc["systemm"] = {}
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "systemm" in str(err.value)
    doc = small_doc()
    doc["system"]["extra_field"] = 1
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "system.extra_field" in str(err.value)
    # the factorisation and the eta-mu convention are fixed, not configurable
    for key, value in (("factorization", "takagi"), ("cross_kernel", "equilibrium")):
        doc = small_doc()
        doc["noise"] = {key: value}
        with pytest.raises(ValidationError) as err:
            parse_config(doc)
        assert f"noise.{key}" in str(err.value)


def test_non_hermitian_h0_named():
    doc = small_doc()
    doc["system"]["h0"] = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "h0" in str(err.value)


def test_coupling_count_must_match_bath():
    doc = small_doc()
    doc["system"]["couplings"] = []
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "couplings" in str(err.value)


def test_drive_amplitude_length_checked():
    doc = small_doc()
    doc["system"]["drives"] = [{"matrix": [[1.0, 0.0], [0.0, -1.0]],
                                "amplitudes": [0.0, 1.0]}]
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "amplitudes" in str(err.value)


def test_covariance_cap_checked_at_parse_time():
    doc = small_doc()
    doc["noise"] = {"dim_cap": 10}
    with pytest.raises(ValidationError) as err:
        parse_config(doc)
    assert "dim_cap" in str(err.value) or "grids" in str(err.value)


def test_bad_enum_values():
    doc = small_doc()
    doc["ensemble"]["normalize"] = "sometimes"
    with pytest.raises(ValidationError):
        parse_config(doc)


def test_roundtrip_is_stable():
    doc = small_doc()
    doc["system"]["drives"] = [{"matrix": [[0.2, 0.0], [0.0, -0.2]],
                                "amplitudes": list(np.linspace(0, 1, 21))}]
    doc["output"] = {"document": "out.json", "csv": "out.csv"}
    cfg = parse_config(doc)
    emitted = emit_config(cfg)
    cfg2 = parse_config(emitted)
    assert emit_config(cfg2) == emitted
    assert cfg2.grids.t_f == cfg.grids.t_f
    assert cfg2.output_document == "out.json"


def test_document_must_be_object():
    with pytest.raises(ValidationError):
        parse_config([1, 2, 3])
